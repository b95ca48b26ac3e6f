package mpi

import (
	"fmt"

	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// This file holds the MPI layer's blocking surface, written once as step
// state machines and run by two drivers. A blocking operation is a state
// (WaitState for Wait/Waitall — rendezvous sends park on the
// clear-to-send there — RecvState and SendState for blocking
// point-to-point, ProbeState for MPI_Probe, SleepState for interruptible
// sleeps, CollectiveState in collectives.go for barrier/bcast/reduce/
// allreduce/gather/scatter/allgather/alltoall) whose step either finishes
// the operation or returns the value to park on. The drivers differ only
// in what parking means:
//
//   - Closure mode (World.Run): Env.Drive blocks the process's carrier
//     goroutine on the park value (core.Ctx.Block) and steps again when
//     the process is woken. Comm.Recv, Comm.Barrier, Env.Sleep and every
//     other blocking entry point is a thin Drive call over its state, and
//     Env.RunProg drives a whole Prog the same way.
//   - Program mode (World.RunProgs): the core engine calls the Prog's
//     Step on the scheduler stack; the Prog returns the park value and a
//     parked process is pure data — the mode that scales a world to
//     millions of simulated MPI processes.
//
// A program VP has no goroutine to block, so a blocking entry point that
// would park there panics with a typed *ClosureOnlyError from Drive's
// single site. Entry points that finish without parking (an eager Send,
// a Wait on a completed request) work in both modes. The only operations
// with no step form — and so closure-mode-only — are ULFM's Comm.Shrink
// and Comm.Agree. Comm.Abort and Env.FailNow unwind the VP via panic,
// which the scheduler classifies, so programs may call them directly.

// Prog is a resumable MPI program: one simulated process expressed as
// explicit steps between waits. Step is called once to start (wake == nil)
// and once per resume; it returns (park, false) to park — park must be the
// value a step state handed back (WaitallStep, RecvStep, CollectiveStep,
// ...) — or (_, true) when the process is finished, after calling
// Env.Finalize. World.RunProgs runs Progs in program mode, Env.RunProg in
// closure mode.
type Prog interface {
	Step(e *Env, wake any) (park any, done bool)
}

// RunProgs executes one Prog per simulated process and drives the
// simulation to completion — the program-mode analogue of World.Run.
// newProg is called once per rank, in VP context, at the rank's first
// execution (lazy, like everything else about program VPs). A program
// that reports done without having called Env.Finalize is treated as a
// process failure, exactly as in Run.
func (w *World) RunProgs(newProg func(rank int) Prog) (*core.Result, error) {
	defer w.dropPools()
	return w.eng.RunPrograms(func(c *core.Ctx) core.Program {
		b := &progBundle{}
		initProcEnv(&b.procBundle, w, c)
		b.env.prog = true
		b.pv = progVP{env: &b.env, user: newProg(c.Rank())}
		return &b.pv
	})
}

// Drive runs a step-shaped blocking operation to completion: it calls
// step until it reports done, blocking the process on each park value in
// between and handing the wake value to the next call. It is the closure
// driver of the step states program mode parks on by returning from
// Prog.Step, and the only place the MPI layer blocks a process. On a
// program VP a step that parks panics with a *ClosureOnlyError naming
// the operation.
func (e *Env) Drive(step func(wake any) (done bool, park any)) {
	var wake any
	for {
		done, park := step(wake)
		if done {
			return
		}
		if e.prog {
			panic(&ClosureOnlyError{Op: blockOp(park), Rank: e.Rank()})
		}
		wake = e.ctx.Block(park)
	}
}

// RunProg executes p to completion inside a closure-mode process,
// blocking wherever program mode would park: the same Prog runs under
// World.Run (one call per rank, from the App) and World.RunProgs with
// identical results. Like under RunProgs, the program must call Finalize
// before reporting done.
func (e *Env) RunProg(p Prog) {
	e.Drive(func(wake any) (bool, any) {
		park, done := p.Step(e, wake)
		return done, park
	})
}

// blockOp describes a park value for a ClosureOnlyError: the MPI layer
// parks with its procState, whose BlockReason renders the pending wait
// or probe; other park values (the "sleep" of Ctx.SleepPark) are
// printed as they are.
func blockOp(park any) string {
	if r, ok := park.(interface{ BlockReason() string }); ok {
		return r.BlockReason()
	}
	return fmt.Sprint(park)
}

// ClosureOnlyError is the panic value raised when a blocking entry point
// would park a program VP (Comm.Recv, a rendezvous Comm.Send, Comm.Probe,
// a collective method, Env.Sleep, ULFM Shrink/Agree): a program has no
// goroutine to block, so Drive names the op and rank and the caller
// should use the step state instead (or, for Shrink and Agree, which
// have none, run in closure mode).
type ClosureOnlyError struct {
	// Op describes the blocking operation (e.g. "MPI wait: recv from 3
	// tag 0 (comm 0)", "MPI probe: src 1 tag -1 (comm 0)", "sleep").
	Op string
	// Rank is the world rank of the offending process.
	Rank int
}

// Error implements error.
func (e *ClosureOnlyError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s would block, which a program VP cannot do (closure-mode-only; use the step-based state instead)", e.Rank, e.Op)
}

// blockStates are the step states the closure-style blocking entry
// points drive. Only one of them is ever in flight per process: a
// closure process is blocked inside that one call, and every entry point
// finishes with its state idle before it runs the communicator's error
// handler, so a handler that calls MPI again reuses them safely.
type blockStates struct {
	ws    WaitState
	send  SendState
	recv  RecvState
	probe ProbeState
	coll  CollectiveState
	hop   hopState
}

// blocking returns the process's blockStates. A closure process
// allocates its own at its first blocking call. A program process
// reaches the closure entry points only for calls that finish without
// parking (an eager Send, a Wait on a completed request; anything else
// panics in Drive), and its partition runs one program step at a time,
// so all program processes of a partition share the pool's set.
func (e *Env) blocking() *blockStates {
	if e.prog {
		return &e.ps.dp.blk
	}
	if e.blk == nil {
		e.blk = new(blockStates)
	}
	return e.blk
}

// progBundle extends the per-process allocation with the program adapter,
// keeping program mode at one allocation per rank too.
type progBundle struct {
	procBundle
	pv progVP
}

// progVP adapts a Prog to the core engine's Program interface and applies
// the MPI layer's finalize discipline at completion.
type progVP struct {
	env  *Env
	user Prog
}

func (pv *progVP) Step(c *core.Ctx, wake any) (park any, done bool) {
	park, done = pv.user.Step(pv.env, wake)
	if done {
		if !pv.env.finalized {
			c.Logf("exited without MPI_Finalize: simulated MPI process failure")
			c.FailNow()
		}
		// The rank is done: drop the user program (and everything its
		// state machine pins — request slices, grids, wait sets) while
		// the per-process bundle lives on for post-run accounting. At a
		// million ranks the finished programs would otherwise be the
		// largest block of dead memory in the residual footprint.
		pv.user = nil
	}
	return park, done
}

// WaitState carries one wait (a Wait or Waitall) across steps: the
// request set being waited on, whether the per-call overhead has been
// charged, and a pending count maintained by request completion
// (completeRequest decrements it through Request.waiter), so a wake that
// does not finish the wait re-parks in O(1) instead of re-scanning the
// request set. A program embeds it in its state, a closure process reuses
// its own (Comm.Wait, Comm.Waitall), wait after wait; Begin never
// allocates once the request slice has grown to the steady-state width.
type WaitState struct {
	reqs    []*Request
	charged bool
	// pending counts the tracked not-yet-complete requests; valid once
	// the wait has parked (waitStep's first not-done pass fills it).
	pending int
}

// Begin arms the wait for a new request set. Call it once per wait, then
// call WaitStep/WaitallStep from every step until it reports done. A
// request must appear at most once in the set.
func (ws *WaitState) Begin(reqs ...*Request) {
	ws.reqs = append(ws.reqs[:0], reqs...)
	ws.charged = false
	ws.pending = 0
}

// waitStep is one scheduling quantum of a wait, the step every blocking
// point-to-point operation and collective hop parks on: it either
// completes the wait (done == true: the clock has advanced to the latest
// completion and err is the first request error in request order) or
// arms failure-detection timeouts and returns the park value. Wake-ups
// deliver no value — a wake with requests still pending re-parks in O(1)
// off the pending count, and the final wake re-examines the request set.
func (e *Env) waitStep(ws *WaitState) (done bool, park any, err error) {
	if ws.charged && ws.pending > 0 {
		// O(1) re-park: a completion woke the VP but the wait is not
		// done. No re-scan and no timeout re-arm is needed — timeouts
		// for peers that failed while parked are armed by the
		// failure-notification handler.
		e.ps.waitingOn = ws.reqs
		return false, e.ps, nil
	}
	if !ws.charged {
		e.chargeCall()
		ws.charged = true
	}
	allDone := true
	var latest vclock.Time
	for _, r := range ws.reqs {
		if !r.done {
			allDone = false
			break
		}
		if r.completeAt > latest {
			latest = r.completeAt
		}
	}
	if !allDone {
		// Before parking, register each pending request with this wait
		// (completion decrements pending in O(1)) and arm
		// failure-detection timeouts for requests that involve
		// already-known-failed peers; requests whose peer fails later
		// are armed by the notification handler.
		for _, r := range ws.reqs {
			if !r.done {
				if r.waiter != ws {
					r.waiter = ws
					ws.pending++
				}
				e.ps.armTimeout(e.w, r, vpEmitter(e.ctx))
			}
		}
		e.ps.waitingOn = ws.reqs
		return false, e.ps, nil
	}
	e.ps.waitingOn = nil
	e.ctx.AdvanceTo(latest)
	if e.w.cfg.Tracer != nil {
		for _, r := range ws.reqs {
			ev := trace.Event{At: r.completeAt, Kind: trace.KindComplete, Rank: int32(e.Rank()), Peer: int32(r.peer()), Size: int64(r.size)}
			if r.kind == sendReq {
				ev.Flags |= trace.FlagSendOp
			} else if r.msg != nil {
				ev.Size = int64(r.msg.Size)
			}
			if r.err != nil {
				ev.Flags |= trace.FlagError
				ev.Detail = r.opName() + " err=" + r.err.Error()
			}
			e.w.cfg.Tracer.Record(ev)
		}
	}
	for _, r := range ws.reqs {
		if r.err != nil {
			err = r.err
			break
		}
	}
	// Drop the request references (capacity stays for the next Begin): an
	// idle WaitState must not pin completed — and possibly recycled —
	// requests in memory while the program is parked elsewhere. At a
	// million ranks those stale pointers are the difference between a
	// parked rank costing its state machine and costing its state machine
	// plus a dozen dead Requests.
	for i := range ws.reqs {
		ws.reqs[i] = nil
	}
	ws.reqs = ws.reqs[:0]
	return true, nil, err
}

// WaitallStep advances a wait on the request set armed by ws.Begin — the
// step Comm.Waitall drives. Returns done == false with the park value
// (the wait is still in progress), or done == true with the first error
// among the requests after the communicator's error handler ran (with
// ErrorsAreFatal a process-failure error aborts and this call does not
// return). The completed requests are the caller's to recycle or reuse.
func (c *Comm) WaitallStep(ws *WaitState) (done bool, park any, err error) {
	done, park, err = c.env.waitStep(ws)
	if done && err != nil {
		err = c.handleError(err)
	}
	return done, park, err
}

// WaitStep advances a wait on the single request armed by ws.Begin — the
// step Comm.Wait drives. On done it returns the received
// message for receives (nil for sends); like Wait, the request stays the
// caller's to Free or reuse.
func (c *Comm) WaitStep(ws *WaitState) (done bool, park any, msg *Message, err error) {
	req := ws.reqs[0] // waitStep drops the references on completion
	done, park, err = c.env.waitStep(ws)
	if !done {
		return false, park, nil, nil
	}
	if err != nil {
		return true, nil, nil, c.handleError(err)
	}
	return true, nil, req.msg, nil
}

// SleepState carries one interruptible sleep across steps: the state
// behind Env.Sleep, used e.g. to charge checkpoint-restore gate
// delays. Zero value ready; reused sleep after sleep.
type SleepState struct {
	armed bool
}

// SleepStep advances the sleep. The first call arms the wake timer and
// returns the park value to return from Step (or done immediately for
// d <= 0); the resume call reports done. The clock advances to the wake
// time on resume, with events due before the deadline (failure
// activations, aborts, message arrivals) processed in order.
func (e *Env) SleepStep(ss *SleepState, d vclock.Duration) (done bool, park any) {
	if ss.armed {
		ss.armed = false
		return true, nil
	}
	park, ok := e.ctx.SleepPark(d)
	if !ok {
		return true, nil
	}
	ss.armed = true
	return false, park
}

// RecvState carries one blocking receive across steps: the state behind
// Comm.Recv. Zero value ready; reused receive after receive.
type RecvState struct {
	ws  WaitState
	req *Request
}

// RecvStep advances a blocking receive from src (or AnySource) with tag
// (or AnyTag). The first call posts the receive; src and tag are ignored
// on resume calls. On done the caller owns msg (Release it once
// consumed); a failed-process receive completes in error after the
// detection timeout, through the communicator's error handler.
func (c *Comm) RecvStep(rs *RecvState, src, tag int) (done bool, park any, msg *Message, err error) {
	if rs.req == nil {
		req, err := c.irecv(src, tag)
		if err != nil {
			return true, nil, nil, c.handleError(err)
		}
		rs.req = req
		rs.ws.Begin(req)
	}
	done, park, err = c.env.waitStep(&rs.ws)
	if !done {
		return false, park, nil, nil
	}
	req := rs.req
	rs.req = nil
	msg = req.msg
	req.msg = nil
	c.env.ps.dp.putReq(req)
	if err != nil {
		if msg != nil {
			msg.Release()
		}
		return true, nil, nil, c.handleError(err)
	}
	return true, nil, msg, nil
}

// SendState carries one blocking send across steps: the state behind
// Comm.Send/SendN. Zero value ready; reused send after send.
type SendState struct {
	ws  WaitState
	req *Request
}

// SendStep advances a blocking send of data to dst with tag. Eager sends
// complete on the first call; larger-than-threshold sends post the
// rendezvous envelope and park until the receiver's clear-to-send — data
// must stay untouched until done (the MPI contract; the payload is read
// at clear-to-send time). dst, tag, and data are ignored on resume calls.
func (c *Comm) SendStep(ss *SendState, dst, tag int, data []byte) (done bool, park any, err error) {
	return c.sendStep(ss, dst, tag, len(data), data)
}

// SendNStep is SendStep for a payload-free message of the given size.
func (c *Comm) SendNStep(ss *SendState, dst, tag, size int) (done bool, park any, err error) {
	return c.sendStep(ss, dst, tag, size, nil)
}

func (c *Comm) sendStep(ss *SendState, dst, tag, size int, data []byte) (done bool, park any, err error) {
	if ss.req == nil {
		req, err := c.isend(dst, tag, size, data)
		if err != nil {
			return true, nil, c.handleError(err)
		}
		ss.req = req
		ss.ws.Begin(req)
	}
	done, park, err = c.env.waitStep(&ss.ws)
	if !done {
		return false, park, nil
	}
	c.env.ps.dp.putReq(ss.req)
	ss.req = nil
	return true, nil, c.handleError(err)
}

// ProbeState carries one blocking probe across steps: the state behind
// Comm.Probe. Zero value ready; reused probe after probe. The
// embedded probe record is registered by address, so a ProbeState must
// not be copied while a probe is in flight.
type ProbeState struct {
	begun     bool
	parked    bool
	worldSrc  int
	tag       int
	postClock vclock.Time
	pr        probeRec
}

// ProbeStep advances a blocking probe for a message from src (or
// AnySource) with tag (or AnyTag); src and tag are ignored on resume
// calls. On done msg carries the envelope information without consuming
// the message; probing a failed process completes in error after the
// detection timeout, like a receive.
func (c *Comm) ProbeStep(st *ProbeState, src, tag int) (done bool, park any, msg *Message, err error) {
	e := c.env
	if !st.begun {
		e.chargeCall()
		if err := c.checkRevoked("probe"); err != nil {
			return true, nil, nil, c.handleError(err)
		}
		worldSrc, err := c.probeSrc(src)
		if err != nil {
			return true, nil, nil, c.handleError(err)
		}
		st.begun = true
		st.worldSrc = worldSrc
		st.tag = tag
		st.postClock = e.ctx.NowQuiet()
	}
	if st.parked {
		st.parked = false
		e.ps.removeProbe(&st.pr)
	}
	if env := e.ps.peekUnexpected(c.id, st.worldSrc, st.tag); env != nil {
		st.begun = false
		return true, nil, &Message{Src: env.srcCommRank, Tag: env.tag, Size: env.size}, nil
	}
	// A relevant failed peer means no message can come: complete in error
	// after the detection timeout, like a receive would.
	if peer, tof, ok := e.ps.relevantFailure(st.worldSrc); ok {
		at := vclock.Max(st.postClock, tof).Add(e.w.cfg.Net.Timeout(e.Rank(), peer))
		now := vclock.Max(at, e.ctx.NowQuiet())
		e.ctx.AdvanceTo(now)
		e.w.trace(trace.Event{At: now, Kind: trace.KindDetect, Rank: int32(e.Rank()), Peer: int32(peer), Aux: int64(tof)})
		e.w.m.recordDetection(e.Rank(), peer, now)
		st.begun = false
		return true, nil, nil, c.handleError(&ProcFailedError{Rank: peer, FailedAt: tof, Op: "probe"})
	}
	st.pr = probeRec{comm: c.id, src: st.worldSrc, tag: st.tag}
	e.ps.probes = append(e.ps.probes, &st.pr)
	st.parked = true
	return false, e.ps, nil, nil
}
