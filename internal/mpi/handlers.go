package mpi

import (
	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// Event handlers in this file receive pooled *core.Event pointers: the
// engine recycles the event as soon as the handler returns, so handlers
// read what they need (Time, Payload) during the call and never store the
// event itself. Payload values (*envelope, ctsMsg, notifications, ...) are
// independent allocations and may be retained — the unexpected-message
// queue and pending-request tables do exactly that.

// localState returns the procState of a local, still-alive rank, or nil.
func localState(s *core.SchedCtx, rank int) *procState {
	if !s.Alive(rank) {
		return nil
	}
	ps, _ := s.Data(rank).(*procState)
	return ps
}

// wakeIfWaiting resumes a VP blocked on a wait containing req.
func wakeIfWaiting(s *core.SchedCtx, ps *procState, req *Request, at vclock.Time) {
	rank := ps.env.Rank()
	if !s.Blocked(rank) {
		return
	}
	for _, r := range ps.waitingOn {
		if r == req {
			s.Wake(rank, at, nil)
			return
		}
	}
}

// handleEnvelope delivers a message envelope at the receiver: match the
// first compatible posted receive, or queue it as unexpected. Envelopes to
// failed processes are deleted — once a simulated MPI process fails, all
// messages directed to it are dropped.
func (w *World) handleEnvelope(s *core.SchedCtx, ev *core.Event) {
	env := ev.Payload.(*envelope)
	ps := localState(s, env.dst)
	if ps == nil {
		dropEnvelope(w.pools[s.Partition()], env)
		return
	}
	// Endpoint contention: eager payloads serialise through the
	// receiver's NIC in arrival order (rendezvous payloads pay at the
	// data delivery instead — their envelope is control-sized).
	if !env.rendezvous {
		if occ := w.cfg.Net.EjectOccupancy(env.size); occ > 0 {
			start := vclock.Max(ev.Time, ps.ejectFreeAt)
			ps.ejectFreeAt = start.Add(occ)
			env.dataAt = vclock.Max(env.dataAt, ps.ejectFreeAt)
		}
	}
	if req := ps.takePosted(env); req != nil {
		matchEnvelope(w, ps, req, env, schedEmitter(s, env.dst))
		ps.releaseEnvelope(env)
		if w.cfg.Validate {
			ps.checkIndexes("envelope-match")
		}
		if req.done {
			wakeIfWaiting(s, ps, req, req.completeAt)
		}
		return
	}
	ps.addUnexpected(env)
	if w.cfg.Validate {
		ps.checkIndexes("envelope-unexpected")
	}
	// A blocked probe matching this envelope wakes to inspect it.
	for _, pr := range ps.probes {
		if pr.matchesEnvelope(env) && s.Blocked(env.dst) {
			s.Wake(env.dst, ev.Time, nil)
			break
		}
	}
}

// handleCts completes the sender side of a rendezvous: the payload streams
// to the receiver, the send request completes once the payload has been
// injected. A clear-to-send reaching a failed sender is dropped; the
// receiver's request is released by the failure notification timeout.
func (w *World) handleCts(s *core.SchedCtx, ev *core.Event) {
	cts := ev.Payload.(*ctsMsg)
	sender := ev.Target
	ps := localState(s, sender)
	if ps == nil {
		w.pools[s.Partition()].putCts(cts)
		return
	}
	req := ps.findPending(cts.sendReqID)
	if req == nil || req.done {
		ps.dp.putCts(cts)
		return
	}
	net := w.cfg.Net
	// Endpoint contention: the payload queues behind the sender NIC's
	// earlier injections.
	start := ev.Time
	if occ := net.InjectOccupancy(req.size); occ > 0 {
		start = vclock.Max(start, ps.injectFreeAt)
		ps.injectFreeAt = start.Add(occ)
	}
	// The payload is read now, at clear-to-send time — the copy elided
	// at post. An owned buffer transfers outright; the caller's buffer
	// is copied into a pooled one (the sender is either blocked in Wait
	// or, for Isend, has promised not to touch it — MPI's contract).
	dm := ps.dp.getDm()
	dm.recvReqID = cts.recvReqID
	if req.data != nil {
		if req.ownedData {
			dm.data = req.data
		} else {
			buf := ps.dp.getBuf(len(req.data))
			copy(buf, req.data)
			dm.data = buf
		}
		req.data = nil
		req.ownedData = false
	}
	s.EmitFor(sender, core.Event{
		Time:    start.Add(net.TransferTime(req.src, req.dst, req.size)),
		Kind:    kindData,
		Target:  cts.recvRank,
		Payload: dm,
	})
	ps.dp.putCts(cts)
	completeRequest(ps, req, start.Add(net.SendOverhead(req.src, req.dst, req.size)), nil)
	if w.cfg.Validate {
		ps.checkIndexes("cts")
	}
	wakeIfWaiting(s, ps, req, req.completeAt)
}

// handleData delivers a rendezvous payload at the receiver.
func (w *World) handleData(s *core.SchedCtx, ev *core.Event) {
	dm := ev.Payload.(*dataMsg)
	ps := localState(s, ev.Target)
	if ps == nil {
		dp := w.pools[s.Partition()]
		dp.putBuf(dm.data)
		dm.data = nil
		dp.putDm(dm)
		return
	}
	req := ps.findPending(dm.recvReqID)
	if req == nil || req.done || !req.awaitingData {
		// The request already completed in error (failure detection
		// timed out first); drop the late payload.
		ps.dp.putBuf(dm.data)
		dm.data = nil
		ps.dp.putDm(dm)
		return
	}
	at := ev.Time
	if occ := w.cfg.Net.EjectOccupancy(req.msg.Size); occ > 0 {
		start := vclock.Max(at, ps.ejectFreeAt)
		ps.ejectFreeAt = start.Add(occ)
		at = ps.ejectFreeAt
	}
	req.msg.Data = dm.data
	dm.data = nil
	ps.dp.putDm(dm)
	completeRequest(ps, req, at, nil)
	if w.cfg.Validate {
		ps.checkIndexes("data")
	}
	wakeIfWaiting(s, ps, req, req.completeAt)
}

// handleReqTimeout fires a failure-detection timeout: if the request is
// still pending, it completes in error after the simulated network
// communication timeout, which is how the simulated MPI layer detects
// process failures.
func (w *World) handleReqTimeout(s *core.SchedCtx, ev *core.Event) {
	to := ev.Payload.(reqTimeout)
	ps := localState(s, ev.Target)
	if ps == nil {
		return
	}
	req := ps.findPending(to.reqID)
	if req == nil || req.done {
		return
	}
	completeRequest(ps, req, ev.Time, &ProcFailedError{Rank: to.peer, FailedAt: to.failedAt, Op: req.opName()})
	w.trace(trace.Event{At: ev.Time, Kind: trace.KindDetect, Rank: int32(ev.Target), Peer: int32(to.peer), Aux: int64(to.failedAt)})
	w.m.recordDetection(ev.Target, to.peer, ev.Time)
	if w.cfg.Validate {
		ps.checkIndexes("timeout")
	}
	wakeIfWaiting(s, ps, req, req.completeAt)
}

// handleFailNotify processes the simulator-internal failure notification
// at one partition: every local process records the failed rank and its
// time of failure in its own failed-peer list, and failure-detection
// timeouts are armed for pending requests that involve the failed rank —
// releasing (and failing) unmatched receives, MPI_ANY_SOURCE receives, and
// waited-on sends, per the paper's detection design.
func (w *World) handleFailNotify(s *core.SchedCtx, ev *core.Event) {
	fn := ev.Payload.(failNotify)
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		ps := localState(s, rank)
		if ps == nil {
			continue
		}
		if old, ok := ps.failedPeers[fn.rank]; !ok || fn.at < old {
			if ps.failedPeers == nil {
				ps.failedPeers = make(map[int]vclock.Time)
			}
			ps.failedPeers[fn.rank] = fn.at
		}
		// The pending list is id-ordered and armTimeout never unlinks,
		// so walking it directly is deterministic and allocation-free.
		for req := ps.pendHead; req != nil; req = req.nNext {
			if req.involves(fn.rank) {
				ps.armTimeout(w, req, schedEmitter(s, rank))
			}
		}
		// A blocked probe on the failed rank (or a wildcard probe) wakes
		// to observe the failure.
		for _, pr := range ps.probes {
			if (pr.src == fn.rank || pr.src == AnySource) && s.Blocked(rank) {
				s.Wake(rank, ev.Time, nil)
				break
			}
		}
	}
}

// handleAbortNotify processes the simulator-internal abort notification at
// one partition: every local process unwinds at its first clock update at
// or past the abort time; blocked processes are released immediately.
func (w *World) handleAbortNotify(s *core.SchedCtx, ev *core.Event) {
	an := ev.Payload.(abortNotify)
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		if !s.Alive(rank) {
			continue
		}
		s.SetAbortAt(rank, an.at)
		if s.Blocked(rank) {
			s.Wake(rank, vclock.Max(an.at, ev.Time), nil)
		}
	}
}
