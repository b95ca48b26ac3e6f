package mpi

import (
	"fmt"

	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// envelope is the matching unit travelling between processes. Both eager
// messages and rendezvous ready-to-send envelopes are control-sized, so
// envelopes from one sender arrive in send order and MPI's non-overtaking
// matching rule holds; an eager payload becomes available at dataAt, while
// a rendezvous payload is transferred only after the receiver matches.
//
// Envelopes are pooled (dpPool): the sender's partition allocates one per
// message, and the receiver's partition recycles it when it is matched,
// dropped at a dead rank, or drained at finalize. While unexpected, an
// envelope sits in two intrusive lists at once — its (comm, src) FIFO
// (sNext/sPrev) and its communicator's arrival-order list (aNext/aPrev) —
// so wildcard matching walks arrivals directly instead of scanning every
// source.
type envelope struct {
	commID      int
	src, dst    int // world ranks
	srcCommRank int // sender's rank within the communicator
	tag         int
	size        int

	// Eager fields. data is a pooled buffer owned by the envelope until
	// matching transfers it to the receiver's Message.
	data   []byte
	dataAt vclock.Time

	// Rendezvous fields.
	rendezvous bool
	sendReqID  uint64

	// arriveSeq orders unexpected envelopes at the receiver.
	arriveSeq uint64

	// Unexpected-queue links: per-(comm, src) FIFO and per-communicator
	// arrival list.
	sNext, sPrev *envelope
	aNext, aPrev *envelope
}

// ctsMsg is the rendezvous clear-to-send control message (receiver→sender).
// Pooled: allocated by the receiver's partition, recycled by the sender's
// once consumed.
type ctsMsg struct {
	sendReqID uint64
	recvReqID uint64
	recvRank  int // world rank of the receiver
}

// dataMsg is the rendezvous payload delivery (sender→receiver). Pooled
// like ctsMsg; its data buffer transfers to the receiver's Message.
type dataMsg struct {
	recvReqID uint64
	data      []byte
}

// reqTimeout fires the failure-detection timeout of a pending request.
// Carried by value: timeouts only exist on the failure path.
type reqTimeout struct {
	reqID    uint64
	peer     int
	failedAt vclock.Time
}

// failNotify is the simulator-internal failure notification payload.
type failNotify struct {
	rank int
	at   vclock.Time
}

// abortNotify is the simulator-internal abort notification payload.
type abortNotify struct {
	origin int
	at     vclock.Time
	code   int
}

// matchKey indexes posted receives and unexpected envelopes by
// communicator and source world rank.
type matchKey struct{ comm, src int }

// reqQ is an intrusive list of posted receives in post order. The queue
// structs live in the posted index maps and are retained when emptied, so
// a rank that keeps receiving from the same peers never re-allocates them.
type reqQ struct{ head, tail *Request }

func (q *reqQ) push(r *Request) {
	r.pPrev = q.tail
	r.pNext = nil
	if q.tail != nil {
		q.tail.pNext = r
	} else {
		q.head = r
	}
	q.tail = r
}

func (q *reqQ) unlink(r *Request) {
	if r.pPrev != nil {
		r.pPrev.pNext = r.pNext
	} else {
		q.head = r.pNext
	}
	if r.pNext != nil {
		r.pNext.pPrev = r.pPrev
	} else {
		q.tail = r.pPrev
	}
	r.pNext, r.pPrev = nil, nil
}

// envSrcQ is the per-(comm, src) unexpected FIFO (sNext/sPrev links).
type envSrcQ struct{ head, tail *envelope }

func (q *envSrcQ) push(e *envelope) {
	e.sPrev = q.tail
	e.sNext = nil
	if q.tail != nil {
		q.tail.sNext = e
	} else {
		q.head = e
	}
	q.tail = e
}

func (q *envSrcQ) unlink(e *envelope) {
	if e.sPrev != nil {
		e.sPrev.sNext = e.sNext
	} else {
		q.head = e.sNext
	}
	if e.sNext != nil {
		e.sNext.sPrev = e.sPrev
	} else {
		q.tail = e.sPrev
	}
	e.sNext, e.sPrev = nil, nil
}

// envArrQ is the per-communicator arrival-order list (aNext/aPrev links).
type envArrQ struct{ head, tail *envelope }

func (q *envArrQ) push(e *envelope) {
	e.aPrev = q.tail
	e.aNext = nil
	if q.tail != nil {
		q.tail.aNext = e
	} else {
		q.head = e
	}
	q.tail = e
}

func (q *envArrQ) unlink(e *envelope) {
	if e.aPrev != nil {
		e.aPrev.aNext = e.aNext
	} else {
		q.head = e.aNext
	}
	if e.aNext != nil {
		e.aNext.aPrev = e.aPrev
	} else {
		q.tail = e.aPrev
	}
	e.aNext, e.aPrev = nil, nil
}

// postedInline is the number of (comm, src) posted-receive queues kept
// inline in procState before spilling to a map. A 1-D halo exchange uses
// exactly 2 distinct sources, so the dominant oversubscription shape pays
// no allocation and no hashing — and at a million ranks every inline slot
// is ~32 bytes/rank of resident footprint, so the array stays minimal.
const postedInline = 2

// postedIdx indexes the per-(comm, src) posted-receive queues: a linear
// inline array of queue values with a map spill for ranks that receive
// from many distinct sources. Queue addresses are stable either way (the
// inline array lives in procState, which never moves; spill queues are
// individually allocated), so Request.postQ may point at them.
type postedIdx struct {
	n     int
	keys  [postedInline]matchKey
	qs    [postedInline]reqQ
	spill map[matchKey]*reqQ
}

// get returns the queue for k, or nil if none was ever created.
func (ix *postedIdx) get(k matchKey) *reqQ {
	for i := 0; i < ix.n; i++ {
		if ix.keys[i] == k {
			return &ix.qs[i]
		}
	}
	if ix.spill != nil {
		return ix.spill[k]
	}
	return nil
}

// getOrAdd returns the queue for k, creating it (inline while room, in the
// spill map after) on first use. Queues are retained once created, like
// the map entries they replace.
func (ix *postedIdx) getOrAdd(k matchKey) *reqQ {
	if q := ix.get(k); q != nil {
		return q
	}
	if ix.n < postedInline {
		ix.keys[ix.n] = k
		q := &ix.qs[ix.n]
		ix.n++
		return q
	}
	if ix.spill == nil {
		ix.spill = make(map[matchKey]*reqQ)
	}
	q := new(reqQ)
	ix.spill[k] = q
	return q
}

// each visits every queue ever created (validation and finalize sweeps).
func (ix *postedIdx) each(f func(matchKey, *reqQ)) {
	for i := 0; i < ix.n; i++ {
		f(ix.keys[i], &ix.qs[i])
	}
	for k, q := range ix.spill {
		f(k, q)
	}
}

// tagOK reports whether a posted receive's tag accepts an envelope's tag.
// AnyTag only spans the application tag space: internal messages (negative
// tags — barriers, collectives, ULFM) must never be intercepted by user
// wildcards, mirroring MPI's separate collective context.
func tagOK(r *Request, env *envelope) bool {
	if r.tag == AnyTag {
		return env.tag >= 0
	}
	return r.tag == env.tag
}

// addPosted files a receive request into the posted index.
func (ps *procState) addPosted(r *Request) {
	ps.postSeq++
	r.postSeq = ps.postSeq
	r.posted = true
	r.wild = r.src == AnySource
	q := &ps.postedWild
	if !r.wild {
		r.postKey = matchKey{r.comm.id, r.src}
		q = ps.posted.getOrAdd(r.postKey)
	}
	q.push(r)
	r.postQ = q
}

// removePosted unfiles a receive request in O(1) via its intrusive links
// (both the exact-source and wildcard lists unlink the same way); it is a
// no-op for requests that already matched.
func (ps *procState) removePosted(r *Request) {
	if !r.posted {
		return
	}
	r.posted = false
	r.postQ.unlink(r)
	r.postQ = nil
}

// takePosted finds and unfiles the posted receive an arriving envelope
// matches: the earliest-posted compatible request, considering both the
// exact-source list and wildcard receives (MPI's matching rule). Each list
// is in post order, so the first compatible entry of each is its
// candidate; the lower post sequence of the two wins.
func (ps *procState) takePosted(env *envelope) *Request {
	var best *Request
	if q := ps.posted.get(matchKey{env.commID, env.src}); q != nil {
		for r := q.head; r != nil; r = r.pNext {
			if tagOK(r, env) {
				best = r
				break
			}
		}
	}
	for r := ps.postedWild.head; r != nil; r = r.pNext {
		if r.comm.id == env.commID && tagOK(r, env) {
			if best == nil || r.postSeq < best.postSeq {
				best = r
			}
			break
		}
	}
	if best != nil {
		ps.removePosted(best)
	}
	return best
}

// addUnexpected queues an envelope that matched no posted receive: into
// its (comm, src) FIFO and its communicator's arrival list.
func (ps *procState) addUnexpected(env *envelope) {
	ps.arriveSeq++
	env.arriveSeq = ps.arriveSeq
	k := matchKey{env.commID, env.src}
	sq := ps.unexpBySrc[k]
	if sq == nil {
		if ps.unexpBySrc == nil {
			ps.unexpBySrc = make(map[matchKey]*envSrcQ)
		}
		sq = new(envSrcQ)
		ps.unexpBySrc[k] = sq
	}
	sq.push(env)
	aq := ps.unexpByComm[env.commID]
	if aq == nil {
		if ps.unexpByComm == nil {
			ps.unexpByComm = make(map[int]*envArrQ)
		}
		aq = new(envArrQ)
		ps.unexpByComm[env.commID] = aq
	}
	aq.push(env)
	ps.env.w.m.unexpectedDelta(env.dst, 1)
}

// removeUnexpected unlinks an envelope from both unexpected lists.
func (ps *procState) removeUnexpected(env *envelope) {
	ps.unexpBySrc[matchKey{env.commID, env.src}].unlink(env)
	ps.unexpByComm[env.commID].unlink(env)
	ps.env.w.m.unexpectedDelta(env.dst, -1)
}

// takeUnexpected finds and removes the earliest-arrived envelope a freshly
// posted receive matches. Both branches are head-pops in the common case:
// each list is in arrival order, so the first compatible entry is the
// earliest arrival — the exact-source branch walks the (comm, src) FIFO,
// and the wildcard branch walks the communicator's arrival list directly,
// making MPI_ANY_SOURCE matching O(compatible-head) instead of a scan over
// every source.
func (ps *procState) takeUnexpected(req *Request) *envelope {
	if req.src != AnySource {
		if q := ps.unexpBySrc[matchKey{req.comm.id, req.src}]; q != nil {
			for env := q.head; env != nil; env = env.sNext {
				if tagOK(req, env) {
					ps.removeUnexpected(env)
					return env
				}
			}
		}
		return nil
	}
	if q := ps.unexpByComm[req.comm.id]; q != nil {
		for env := q.head; env != nil; env = env.aNext {
			if tagOK(req, env) {
				ps.removeUnexpected(env)
				return env
			}
		}
	}
	return nil
}

// releaseEnvelope recycles a consumed envelope whose payload (if any) was
// transferred elsewhere.
func (ps *procState) releaseEnvelope(env *envelope) {
	env.data = nil
	ps.dp.putEnv(env)
}

// dropEnvelope releases an envelope and its payload buffer (unmatched
// paths: dead receiver, finalize drain).
func dropEnvelope(dp *dpPool, env *envelope) {
	dp.putBuf(env.data)
	env.data = nil
	dp.putEnv(env)
}

// drainUnexpected releases every queued unexpected envelope and its
// buffer — the unmatched-message release path, run at a clean Finalize
// and at process death.
func (ps *procState) drainUnexpected() {
	for _, q := range ps.unexpByComm {
		for env := q.head; env != nil; {
			next := env.aNext
			ps.env.w.m.unexpectedDelta(env.dst, -1)
			dropEnvelope(ps.dp, env)
			env = next
		}
		q.head, q.tail = nil, nil
	}
	for _, q := range ps.unexpBySrc {
		q.head, q.tail = nil, nil
	}
}

// releaseIndexes drops the per-rank matching structures a dead rank no
// longer needs: the posted-receive index, the unexpected-message map
// shells (their queues were just emptied by drainUnexpected), the
// collective scratch, and the pending-lookup spill map. Every one of
// them is recreated on demand by its writer, so releasing an empty
// structure is behavior-neutral — and only empty ones are released: a
// failed rank that still has receives posted (or requests pending) keeps
// those structures, and with them the matching semantics for whatever is
// still in flight. At a million ranks the released maps are the dominant
// retained cost of a finished rank that ever received from more than
// postedInline distinct peers.
func (ps *procState) releaseIndexes() {
	ps.unexpBySrc = nil
	ps.unexpByComm = nil
	ps.f64s = nil
	if ps.postedWild.head == nil {
		empty := true
		ps.posted.each(func(_ matchKey, q *reqQ) {
			if q.head != nil {
				empty = false
			}
		})
		if empty {
			ps.posted = postedIdx{}
		}
	}
	if ps.pendHead == nil {
		ps.pendSpill = nil
	}
}

// pendSpillThreshold is the pending-set size past which id lookups switch
// from walking the intrusive list to the pendSpill map. Point-to-point
// shapes keep a handful of requests pending; fan-in collectives at the
// root can hold thousands at once.
const pendSpillThreshold = 32

// addPending files an incomplete request into the id-ordered pending list
// (ids are monotonic, so tail-append preserves the order the
// failure-notification scan depends on) and, once the set has ever grown
// past the spill threshold, into the lookup map.
func (ps *procState) addPending(r *Request) {
	r.nPrev = ps.pendTail
	r.nNext = nil
	if ps.pendTail != nil {
		ps.pendTail.nNext = r
	} else {
		ps.pendHead = r
	}
	ps.pendTail = r
	ps.pendLen++
	if ps.pendSpill != nil {
		ps.pendSpill[r.id] = r
	} else if ps.pendLen > pendSpillThreshold {
		ps.pendSpill = make(map[uint64]*Request, 2*pendSpillThreshold)
		for q := ps.pendHead; q != nil; q = q.nNext {
			ps.pendSpill[q.id] = q
		}
	}
}

// findPending returns the pending request with the given id, or nil. The
// common case walks the short list; ranks that ever spilled use the map.
func (ps *procState) findPending(id uint64) *Request {
	if ps.pendSpill != nil {
		return ps.pendSpill[id]
	}
	for r := ps.pendHead; r != nil; r = r.nNext {
		if r.id == id {
			return r
		}
	}
	return nil
}

// unlinkPending removes a request from the pending list (and spill map);
// it is a no-op for requests that are not pending.
func (ps *procState) unlinkPending(r *Request) {
	if ps.findPending(r.id) != r {
		return
	}
	if ps.pendSpill != nil {
		delete(ps.pendSpill, r.id)
	}
	ps.pendLen--
	if r.nPrev != nil {
		r.nPrev.nNext = r.nNext
	} else {
		ps.pendHead = r.nNext
	}
	if r.nNext != nil {
		r.nNext.nPrev = r.nPrev
	} else {
		ps.pendTail = r.nPrev
	}
	r.nNext, r.nPrev = nil, nil
}

// emitter is one of the two contexts that can emit events and read the
// current virtual time: a running VP (its own Ctx) or an event handler
// (SchedCtx) acting for a local rank. Message matching runs in both. It
// is a plain value, not an interface, so a handler matching an envelope
// boxes nothing; the context is chosen by one branch.
//
// Pooled-event discipline: emit takes the core.Event by value and the
// engine copies it into a pooled event, so the MPI layer never holds a
// *core.Event of its own. Anything that must outlive the emit call or the
// handler invocation — envelopes, CTS records, notifications — travels as
// a Payload; the engine never recycles payloads, but the MPI layer
// recycles its own pooled payload objects at their consumption points.
type emitter struct {
	ctx *core.Ctx
	s   *core.SchedCtx
	// rank is the local rank the handler is acting for; the engine
	// derives the emitted event's deterministic ordering key from it
	// (see core.SchedCtx.EmitFor), keeping same-virtual-time tie-breaks
	// independent of the partition layout.
	rank int
}

// vpEmitter adapts a VP context.
func vpEmitter(c *core.Ctx) emitter { return emitter{ctx: c} }

// schedEmitter adapts a handler context acting for rank.
func schedEmitter(s *core.SchedCtx, rank int) emitter { return emitter{s: s, rank: rank} }

func (em emitter) emit(ev core.Event) {
	if em.ctx != nil {
		em.ctx.Emit(ev)
		return
	}
	em.s.EmitFor(em.rank, ev)
}

func (em emitter) now() vclock.Time {
	if em.ctx != nil {
		return em.ctx.NowQuiet()
	}
	return em.s.Now()
}

// isend posts a nonblocking send and returns its request. Internal: the
// public wrappers apply the communicator's error handler.
func (c *Comm) isend(dstCommRank, tag, size int, data []byte) (*Request, error) {
	e := c.env
	e.chargeCall()
	if err := c.checkRevoked("send"); err != nil {
		return nil, err
	}
	if dstCommRank < 0 || dstCommRank >= c.n {
		return nil, fmt.Errorf("mpi: send destination rank %d out of range [0,%d)", dstCommRank, c.n)
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: send tag %d must be non-negative", tag)
	}
	return c.isendTag(dstCommRank, tag, size, data), nil
}

// isendTag posts a send with any tag value (internal tags are negative).
// The caller keeps ownership of data; the eager path copies it into a
// pooled buffer at post time, the rendezvous path reads it when the
// clear-to-send arrives (the MPI contract: the buffer is untouched until
// the send completes).
func (c *Comm) isendTag(dstCommRank, tag, size int, data []byte) *Request {
	return c.isendDP(dstCommRank, tag, size, data, false)
}

// isendOwned posts a send whose data is a pooled buffer the caller
// transfers to the MPI layer: no copy at post or transfer time. Internal
// senders (encoded reductions, framed gathers) use it for zero-copy hops.
func (c *Comm) isendOwned(dstCommRank, tag, size int, data []byte) *Request {
	return c.isendDP(dstCommRank, tag, size, data, true)
}

func (c *Comm) isendDP(dstCommRank, tag, size int, data []byte, owned bool) *Request {
	e := c.env
	dp := e.ps.dp
	net := e.w.cfg.Net
	src := e.Rank()
	dst := c.WorldRank(dstCommRank)
	req := dp.getReq()
	req.id = e.ps.newReqID()
	req.kind = sendReq
	req.comm = c
	req.src = src
	req.dst = dst
	req.tag = tag
	req.size = size
	req.postClock = e.ctx.NowQuiet()
	env := dp.getEnv()
	env.commID = c.id
	env.src = src
	env.dst = dst
	env.srcCommRank = c.rank
	env.tag = tag
	env.size = size
	t0 := req.postClock
	eager := net.Eager(size)
	e.w.m.countSend(src, size, !eager)
	if e.w.cfg.Tracer != nil {
		ev := trace.Event{At: t0, Kind: trace.KindSend, Rank: int32(src), Peer: int32(dst), Tag: int32(tag), Size: int64(size)}
		if !eager {
			ev.Flags = trace.FlagRendezvous
		}
		e.w.cfg.Tracer.Record(ev)
	}
	if eager {
		// The payload travels with the envelope: transfer an owned
		// buffer outright, or copy the caller's bytes into a pooled one
		// (the caller may reuse its buffer immediately — a broadcast
		// root does exactly that).
		if data != nil {
			if owned {
				env.data = data
			} else {
				buf := dp.getBuf(len(data))
				copy(buf, data)
				env.data = buf
			}
		}
		// Endpoint contention: the payload queues behind earlier
		// injections at this node's NIC.
		inject := t0
		if occ := net.InjectOccupancy(size); occ > 0 {
			inject = vclock.Max(t0, e.ps.injectFreeAt)
			e.ps.injectFreeAt = inject.Add(occ)
		}
		env.dataAt = inject.Add(net.TransferTime(src, dst, size))
		// An eager send completes locally once the message is injected;
		// it never waits on the receiver (fire-and-forget buffering).
		req.done = true
		e.ctx.Emit(core.Event{Time: t0.Add(net.ControlTime(src, dst)), Kind: kindEnvelope, Target: dst, Payload: env})
		e.ctx.Elapse(net.SendOverhead(src, dst, size))
		req.completeAt = e.ctx.NowQuiet()
	} else {
		// Rendezvous: send the ready-to-send envelope and wait for the
		// receiver's clear-to-send before transferring the payload. No
		// snapshot is taken here — the payload is read at CTS time.
		env.rendezvous = true
		env.sendReqID = req.id
		req.data = data
		req.ownedData = owned
		e.ps.addPending(req)
		e.ctx.Emit(core.Event{Time: t0.Add(net.ControlTime(src, dst)), Kind: kindEnvelope, Target: dst, Payload: env})
		e.ctx.Elapse(net.SendOverhead(src, dst, 0))
	}
	return req
}

// irecv posts a nonblocking receive. Internal: the public wrappers apply
// the communicator's error handler.
func (c *Comm) irecv(srcCommRank, tag int) (*Request, error) {
	e := c.env
	e.chargeCall()
	if err := c.checkRevoked("recv"); err != nil {
		return nil, err
	}
	if srcCommRank != AnySource && (srcCommRank < 0 || srcCommRank >= c.n) {
		return nil, fmt.Errorf("mpi: receive source rank %d out of range [0,%d)", srcCommRank, c.n)
	}
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("mpi: receive tag %d must be non-negative or AnyTag", tag)
	}
	return c.irecvTag(srcCommRank, tag), nil
}

// irecvTag posts a receive with any tag value (internal tags are negative).
func (c *Comm) irecvTag(srcCommRank, tag int) *Request {
	e := c.env
	src := AnySource
	if srcCommRank != AnySource {
		src = c.WorldRank(srcCommRank)
	}
	req := e.ps.dp.getReq()
	req.id = e.ps.newReqID()
	req.kind = recvReq
	req.comm = c
	req.src = src
	req.dst = e.Rank()
	req.tag = tag
	req.postClock = e.ctx.NowQuiet()
	e.ps.addPending(req)
	e.w.trace(trace.Event{At: req.postClock, Kind: trace.KindRecvPost, Rank: int32(e.Rank()), Peer: int32(src), Tag: int32(tag)})
	// Match the earliest compatible unexpected envelope first (arrival
	// order preserves MPI's non-overtaking rule).
	if env := e.ps.takeUnexpected(req); env != nil {
		matchEnvelope(e.w, e.ps, req, env, vpEmitter(e.ctx))
		e.ps.releaseEnvelope(env)
		if e.w.cfg.Validate {
			e.ps.checkIndexes("irecv-match")
		}
		return req
	}
	e.ps.addPosted(req)
	if e.w.cfg.Validate {
		e.ps.checkIndexes("irecv-post")
	}
	return req
}

// matchEnvelope binds a receive request to an envelope. For eager
// envelopes the request completes when the payload has arrived (the
// envelope's pooled payload buffer transfers to the request's Message);
// for rendezvous envelopes a clear-to-send goes back to the sender and the
// request completes when the payload delivery event fires. The caller
// recycles the envelope afterwards (releaseEnvelope).
func matchEnvelope(w *World, ps *procState, req *Request, env *envelope, em emitter) {
	req.src = env.src
	msg := ps.dp.getMsg()
	msg.Src = env.srcCommRank
	msg.Tag = env.tag
	msg.Size = env.size
	msg.pool = ps.dp
	req.msg = msg
	if env.rendezvous {
		req.awaitingData = true
		net := w.cfg.Net
		cts := ps.dp.getCts()
		cts.sendReqID = env.sendReqID
		cts.recvReqID = req.id
		cts.recvRank = env.dst
		// The clear-to-send leaves once both the envelope has arrived
		// (em.now() when matching on arrival) and the receive is posted
		// (postClock when the envelope waited in the unexpected queue).
		em.emit(core.Event{
			Time:    vclock.Max(em.now(), req.postClock).Add(net.ControlTime(env.dst, env.src)),
			Kind:    kindCts,
			Target:  env.src,
			Payload: cts,
		})
		return
	}
	msg.Data = env.data
	env.data = nil
	completeRequest(ps, req, vclock.Max(req.postClock, env.dataAt), nil)
}

// completeRequest finalises a request at virtual time at. A send still
// owning a pooled buffer (an owned rendezvous send dying before its
// clear-to-send) releases it here.
func completeRequest(ps *procState, req *Request, at vclock.Time, err error) {
	req.done = true
	req.completeAt = at
	req.err = err
	req.awaitingData = false
	if req.waiter != nil {
		req.waiter.pending--
		req.waiter = nil
	}
	if req.data != nil {
		if req.ownedData {
			ps.dp.putBuf(req.data)
		}
		req.data = nil
	}
	ps.unlinkPending(req)
	ps.removePosted(req)
}

// waitReason describes a wait for deadlock reports. It is only called if
// a report is actually printed (see procState.BlockReason).
func waitReason(reqs []*Request) string {
	if len(reqs) == 1 {
		r := reqs[0]
		if r.kind == recvReq {
			return fmt.Sprintf("MPI wait: recv from %d tag %d (comm %d)", r.src, r.tag, r.comm.id)
		}
		return fmt.Sprintf("MPI wait: send to %d tag %d (comm %d)", r.dst, r.tag, r.comm.id)
	}
	return fmt.Sprintf("MPI waitall: %d requests", len(reqs))
}

// BlockReason renders the process's block reason lazily for deadlock
// reports: the wait fast path parks with the procState itself instead of
// formatting a string per block.
func (ps *procState) BlockReason() string {
	if len(ps.waitingOn) > 0 {
		return waitReason(ps.waitingOn)
	}
	if n := len(ps.probes); n > 0 {
		pr := ps.probes[n-1]
		return fmt.Sprintf("MPI probe: src %d tag %d (comm %d)", pr.src, pr.tag, pr.comm)
	}
	return "MPI: blocked"
}

// armTimeout schedules the failure-detection timeout of a pending request
// whose peer is known to have failed. The operation completes in error at
// max(post time, time of failure) + the network tier's timeout — the
// paper's purely timeout-based detection — but never before the failure is
// knowable at this process.
func (ps *procState) armTimeout(w *World, req *Request, em emitter) {
	if req.done || req.timeoutScheduled {
		return
	}
	self := ps.env.Rank()
	best := vclock.Never
	bestPeer := -1
	var bestTof vclock.Time
	// consider captures the winning peer's time of failure alongside the
	// deadline, so the emitted timeout carries the exact value the
	// deterministic scan chose (no second map lookup).
	consider := func(peer int, tof vclock.Time) {
		at := vclock.Max(req.postClock, tof).Add(w.cfg.Net.Timeout(self, peer))
		if at < best || (at == best && peer < bestPeer) {
			best, bestPeer, bestTof = at, peer, tof
		}
	}
	if req.kind == recvReq && req.src == AnySource {
		// Deterministic scan: pick the earliest-detectable failed peer.
		for peer, tof := range ps.failedPeers {
			consider(peer, tof)
		}
	} else if tof, ok := ps.failedPeers[req.peer()]; ok {
		consider(req.peer(), tof)
	}
	if bestPeer < 0 {
		return
	}
	at := vclock.Max(best, em.now())
	req.timeoutScheduled = true
	em.emit(core.Event{
		Time:    at,
		Kind:    kindReqTimeout,
		Target:  self,
		Payload: reqTimeout{reqID: req.id, peer: bestPeer, failedAt: bestTof},
	})
}
