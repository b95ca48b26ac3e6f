package mpi

import (
	"fmt"

	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// CollectiveAlgo selects the collective communication algorithm.
type CollectiveAlgo int

const (
	// Linear collectives (the paper's configuration): the root
	// communicates with every other rank sequentially.
	Linear CollectiveAlgo = iota
	// Tree collectives use binomial trees, the usual optimisation; kept
	// for the collective-algorithm ablation.
	Tree
)

// String names the algorithm.
func (a CollectiveAlgo) String() string {
	if a == Tree {
		return "tree"
	}
	return "linear"
}

// WorldConfig parameterises the simulated MPI world.
type WorldConfig struct {
	// Net is the network model (required).
	Net *netmodel.Model
	// Proc is the processor model used by Env.Compute.
	Proc procmodel.Model
	// NotifyDelay is the latency of simulator-internal failure/abort
	// notifications. Zero defaults to the system link latency. With a
	// parallel engine it must be at least the engine lookahead.
	NotifyDelay vclock.Duration
	// CallOverhead is the per-MPI-call CPU cost charged to the caller.
	CallOverhead vclock.Duration
	// Collectives selects the collective algorithm (default Linear, as
	// in the paper).
	Collectives CollectiveAlgo
	// FSStore and FSModel expose the simulated parallel file system to
	// applications; FSStore may be nil if the application does no I/O.
	FSStore *fsmodel.Store
	// FSModel is the file-system cost model (zero value = free I/O,
	// matching the paper's Table II configuration).
	FSModel fsmodel.Model
	// FSHierarchy, when non-empty, describes a multi-tier checkpoint
	// storage hierarchy (node-local memory → burst buffer → PFS) used by
	// the checkpoint layer for staged writes. Empty means flat
	// single-tier storage under FSModel.
	FSHierarchy fsmodel.Hierarchy
	// Tracer, when set, receives one typed event per MPI operation
	// (sends, receive posts, completions, failures, detections, aborts)
	// for timeline analysis. It must be safe for concurrent use
	// (partitions record in parallel).
	Tracer Tracer
	// Validate compiles the MPI layer's internal invariant checks into
	// the run: posted-receive index consistency, unexpected-queue
	// conservation, and a pending-request sweep at Finalize. It is forced
	// on when the engine itself was built with Validate. Violations panic
	// with a *check.Violation naming the rank, operation and virtual
	// time.
	Validate bool
}

// Tracer receives typed simulator events; internal/trace.Buffer implements
// it. Events carry fixed fields only — no strings are formatted on the
// record path.
type Tracer interface {
	Record(ev trace.Event)
}

// trace records an event if tracing is enabled.
func (w *World) trace(ev trace.Event) {
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Record(ev)
	}
}

// World wires the simulated MPI layer into a core engine. Create the
// engine, then the world, then call World.Run with the application.
type World struct {
	cfg WorldConfig
	eng *core.Engine
	m   metrics
	// pools holds one data-plane pool per engine partition; a pool is
	// only touched by its partition's execution context (see pool.go).
	pools []*dpPool
}

// Event kinds registered by the MPI layer.
const (
	kindEnvelope core.Kind = core.FirstUserKind + iota
	kindCts
	kindData
	kindReqTimeout
	kindFailNotify
	kindAbortNotify
	kindRevoke
	// KindEnd is the first kind available to layers above MPI.
	KindEnd
)

// NewWorld validates cfg, registers the MPI event handlers and death hook
// on eng, and returns the world.
func NewWorld(eng *core.Engine, cfg WorldConfig) (*World, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("mpi: WorldConfig.Net is required")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Proc.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.FSModel.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.FSHierarchy.Validate(); err != nil {
		return nil, err
	}
	if cfg.NotifyDelay == 0 {
		cfg.NotifyDelay = cfg.Net.System.Latency
	}
	if cfg.NotifyDelay < 0 || cfg.CallOverhead < 0 {
		return nil, fmt.Errorf("mpi: NotifyDelay and CallOverhead must be non-negative")
	}
	if cfg.Net.Topo.Nodes() < eng.NumVPs() {
		return nil, fmt.Errorf("mpi: topology has %d nodes for %d ranks (one rank per node)",
			cfg.Net.Topo.Nodes(), eng.NumVPs())
	}
	if eng.ValidateEnabled() {
		cfg.Validate = true
	}
	if eng.Workers() > 1 {
		la := eng.Lookahead()
		minDelay := cfg.NotifyDelay
		for _, d := range []vclock.Duration{cfg.Net.System.Latency, cfg.Net.OnNode.Latency} {
			if d < minDelay {
				minDelay = d
			}
		}
		if la > minDelay {
			return nil, fmt.Errorf("mpi: engine lookahead %v exceeds minimum event delay %v", la, minDelay)
		}
	}
	w := &World{cfg: cfg, eng: eng}
	w.m.init(eng.NumVPs())
	w.pools = make([]*dpPool, eng.Workers())
	for i := range w.pools {
		w.pools[i] = new(dpPool)
	}
	eng.RegisterHandler(kindEnvelope, w.handleEnvelope)
	eng.RegisterHandler(kindCts, w.handleCts)
	eng.RegisterHandler(kindData, w.handleData)
	eng.RegisterHandler(kindReqTimeout, w.handleReqTimeout)
	eng.RegisterHandler(kindFailNotify, w.handleFailNotify)
	eng.RegisterHandler(kindAbortNotify, w.handleAbortNotify)
	eng.RegisterHandler(kindRevoke, w.handleRevoke)
	eng.OnDeath(w.onDeath)
	return w, nil
}

// Engine returns the underlying core engine.
func (w *World) Engine() *core.Engine { return w.eng }

// Config returns the world configuration.
func (w *World) Config() WorldConfig { return w.cfg }

// Run executes app once per simulated MPI process and drives the
// simulation to completion. An application that returns without calling
// Env.Finalize is treated as a process failure, mirroring the paper's
// fault model (returning from main or calling exit without MPI_Finalize).
func (w *World) Run(app func(*Env)) (*core.Result, error) {
	defer w.dropPools()
	return w.eng.Run(func(c *core.Ctx) {
		env := newProcEnv(w, c)
		app(env)
		if !env.finalized {
			c.Logf("exited without MPI_Finalize: simulated MPI process failure")
			c.FailNow()
		}
	})
}

// dropPools releases every partition's data-plane free lists when a run
// returns: a finished world holds no pooled memory, only the counters
// World.Metrics reports.
func (w *World) dropPools() {
	for _, p := range w.pools {
		p.drop()
	}
}

// procBundle packs one process's MPI state — procState, Env, and the world
// communicator — into a single allocation. At million-rank scale the
// per-VP allocation count is the memory bill: one bundle instead of three
// objects, and every index inside procState starts empty (inline or nil)
// instead of six pre-made maps.
type procBundle struct {
	ps    procState
	env   Env
	world Comm
}

// newProcEnv builds and attaches the per-process MPI state for the VP in
// whose context it runs.
func newProcEnv(w *World, c *core.Ctx) *Env {
	b := &procBundle{}
	initProcEnv(b, w, c)
	return &b.env
}

// initProcEnv wires up a (possibly embedded) procBundle in VP context.
func initProcEnv(b *procBundle, w *World, c *core.Ctx) {
	b.env = Env{w: w, ctx: c, ps: &b.ps, world: &b.world}
	b.world = Comm{env: &b.env, id: 0, n: c.N(), rank: c.Rank()}
	b.ps.dp = w.pools[c.Partition()]
	b.ps.env = &b.env
	c.SetData(&b.ps)
}

// onDeath broadcasts the simulator-internal failure notification when a
// simulated MPI process fails: an informational message is printed, and
// every simulated process is notified of the failed rank and its time of
// failure so that it can maintain its own list of failed peers.
func (w *World) onDeath(c *core.Ctx, reason core.DeathReason) {
	// Whatever the death reason, the rank's queued unexpected envelopes
	// are unreachable now — release them and their payload buffers.
	if ps, ok := c.Data().(*procState); ok {
		ps.drainUnexpected()
		ps.releaseIndexes()
		if ps.env.prog && reason != core.DeathCompleted {
			// A program unwound mid-call (a failure or abort activating
			// on a clock update, a ClosureOnlyError) may have left the
			// partition's shared blocking states armed.
			ps.dp.blk = blockStates{}
		}
	}
	if reason != core.DeathFailed {
		return
	}
	at := c.NowQuiet()
	c.Logf("simulated MPI process failure injected (rank %d, time of failure %v)", c.Rank(), at)
	w.trace(trace.Event{At: at, Kind: trace.KindFailure, Rank: int32(c.Rank()), Peer: -1})
	w.m.recordFailure(c.Rank(), at, at.Add(w.cfg.NotifyDelay))
	// EmitBroadcast copies the event value into one pooled event per
	// partition; the shared failNotify payload is never recycled.
	c.EmitBroadcast(core.Event{
		Time:    at.Add(w.cfg.NotifyDelay),
		Kind:    kindFailNotify,
		Payload: failNotify{rank: c.Rank(), at: at},
	})
}

// procState is the MPI layer's per-VP state, attached as the core VP's
// user data. It is only touched from the owning partition (either the VP's
// own goroutine while running, or its partition's event handlers).
type procState struct {
	env *Env

	// dp is the data-plane pool of the partition this VP lives on,
	// shared by every local rank (only one of them executes at a time).
	dp *dpPool

	// Posted receives are indexed by (communicator, source) — a small
	// inline index (postedIdx) since most ranks only ever receive from a
	// handful of distinct sources — with wildcard-source receives in a
	// separate ordered intrusive list; postSeq establishes MPI's
	// first-match-in-post-order rule across the two.
	posted     postedIdx
	postedWild reqQ
	postSeq    uint64
	// Unexpected envelopes sit in a per-(comm, src) FIFO and, at the
	// same time, in their communicator's arrival-order list; arriveSeq
	// stamps arrival order (used by validation and probes). Both maps are
	// created on the first unexpected arrival — a rank whose receives are
	// always posted first (the common halo-exchange shape) never pays for
	// them.
	unexpBySrc  map[matchKey]*envSrcQ
	unexpByComm map[int]*envArrQ
	arriveSeq   uint64
	// Incomplete requests thread through an id-ordered intrusive list
	// (pendHead/pendTail; ids are monotonic, so appends keep the order
	// the failure-notification scan depends on). Handler lookups walk the
	// list while it is short — pending sets are a handful of requests in
	// every common workload — and switch to the pendSpill map once
	// pendLen ever exceeds pendSpillThreshold (fan-in collectives).
	pendHead  *Request
	pendTail  *Request
	pendLen   int
	pendSpill map[uint64]*Request
	// failedPeers is this process's own list of failed simulated MPI
	// processes and their times of failure (the paper's per-process
	// failed list, filled in by notification events; nil until the first
	// notification arrives).
	failedPeers map[int]vclock.Time
	// waitingOn is the request set the VP is currently blocked on.
	waitingOn []*Request
	// probes holds outstanding blocking probes (at most one: a process
	// blocks in a single Probe at a time; kept as a slice for symmetry).
	probes []*probeRec
	// nextReqID numbers this VP's requests.
	nextReqID uint64

	// revoked communicator ids (ULFM extension).
	revoked map[int]bool

	// f64s is the collectives' per-process scratch for decoded operands
	// (see scratchF64); reused across reduction hops.
	f64s []float64

	// injectFreeAt and ejectFreeAt model endpoint contention: the
	// virtual times this node's NIC finishes its current injection and
	// ejection (used only when the network model enables contention).
	injectFreeAt vclock.Time
	ejectFreeAt  vclock.Time
}

func (ps *procState) newReqID() uint64 {
	ps.nextReqID++
	return ps.nextReqID
}

// Env is the per-process handle a simulated application uses: the analogue
// of the MPI library state inside one MPI process.
type Env struct {
	w     *World
	ctx   *core.Ctx
	ps    *procState
	world *Comm

	finalized  bool
	nextCommID int
	// prog marks a process executing as a program VP (World.RunProgs):
	// Drive panics with a typed ClosureOnlyError instead of blocking,
	// directing the caller at the step states (WaitState, RecvState,
	// CollectiveState, SleepState, ...).
	prog bool
	// blk holds a closure process's reusable blocking-call states (nil
	// until its first blocking call; see blocking).
	blk *blockStates
}

// Rank returns the process's world rank.
func (e *Env) Rank() int { return e.ctx.Rank() }

// Size returns the world size (total simulated MPI processes).
func (e *Env) Size() int { return e.ctx.N() }

// World returns the world communicator (all ranks).
func (e *Env) World() *Comm { return e.world }

// Now returns the process's virtual clock. Like a timing function in xSim
// (gettimeofday), it updates the clock and lets a pending failure or abort
// activate.
func (e *Env) Now() vclock.Time { return e.ctx.Now() }

// Elapse advances the virtual clock by d, modelling local computation.
func (e *Env) Elapse(d vclock.Duration) { e.ctx.Elapse(d) }

// Compute advances the virtual clock by the processor model's time for ops
// work units (reference-core cycles).
func (e *Env) Compute(ops float64) { e.ctx.Elapse(e.w.cfg.Proc.ComputeTime(ops)) }

// Sleep advances the virtual clock by d while yielding to the simulator
// (interruptible by failures and aborts, unlike Elapse): SleepStep driven
// to completion. A positive-duration Sleep blocks, which a program VP
// cannot do.
func (e *Env) Sleep(d vclock.Duration) {
	var ss SleepState
	e.Drive(func(any) (bool, any) { return e.SleepStep(&ss, d) })
}

// Finalize marks a clean MPI exit. Applications that return without
// calling it are treated as failed processes. In Validate mode it also
// runs the conservation sweep: a clean exit must leave no pending
// requests, no posted receives, no outstanding probes, and an unexpected
// queue consistent with its depth gauge.
func (e *Env) Finalize() {
	if e.w.cfg.Validate && !e.finalized {
		e.ps.checkFinalize()
	}
	if !e.finalized {
		// Unmatched messages are unreachable after a clean exit: release
		// the envelopes and their payload buffers back to the pool.
		e.ps.drainUnexpected()
	}
	e.finalized = true
}

// Finalized reports whether Finalize was called.
func (e *Env) Finalized() bool { return e.finalized }

// Abort aborts the simulated application from this process (MPI_Abort on
// the world communicator). It does not return.
func (e *Env) Abort(code int) { e.world.Abort(code) }

// FailNow makes this process fail immediately (an application-triggered
// process failure). It does not return.
func (e *Env) FailNow() { e.ctx.FailNow() }

// ScheduleFailure schedules this process's own failure at virtual time t
// (the earliest failure time; the actual failure happens at the next clock
// update at or past t).
func (e *Env) ScheduleFailure(t vclock.Time) { e.ctx.SetTimeOfFailure(t) }

// FailedPeers returns a snapshot of this process's failed-peer list as a
// map from world rank to time of failure.
func (e *Env) FailedPeers() map[int]vclock.Time {
	out := make(map[int]vclock.Time, len(e.ps.failedPeers))
	for r, t := range e.ps.failedPeers {
		out[r] = t
	}
	return out
}

// PeerFailed reports whether this process has been notified of the given
// world rank's failure. It is the allocation-free form of FailedPeers for
// hot paths that only test one peer's liveness (the redundancy layer's
// failover checks).
func (e *Env) PeerFailed(rank int) bool {
	_, dead := e.ps.failedPeers[rank]
	return dead
}

// FSStore returns the simulated parallel file system contents (nil if the
// world was configured without one).
func (e *Env) FSStore() *fsmodel.Store { return e.w.cfg.FSStore }

// FSModel returns the file-system cost model.
func (e *Env) FSModel() fsmodel.Model { return e.w.cfg.FSModel }

// FSHierarchy returns the multi-tier checkpoint storage hierarchy (empty
// for flat single-tier storage).
func (e *Env) FSHierarchy() fsmodel.Hierarchy { return e.w.cfg.FSHierarchy }

// Logf writes an informational message through the simulator's logger.
func (e *Env) Logf(format string, args ...any) { e.ctx.Logf(format, args...) }

// chargeCall charges the per-call CPU overhead; every MPI call is a clock
// update point where pending failures and aborts activate.
func (e *Env) chargeCall() { e.ctx.Elapse(e.w.cfg.CallOverhead) }

// coreCtx exposes the core context to sibling packages (ULFM).
func (e *Env) coreCtx() *core.Ctx { return e.ctx }
