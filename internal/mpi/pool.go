package mpi

import "xsim/internal/freelist"

// The data-plane pools. One dpPool per engine partition holds free lists
// for every object the point-to-point fast path would otherwise allocate
// per message — envelopes, requests, received-message headers, the
// rendezvous control records — plus a size-classed payload buffer pool,
// following the pooled-event discipline the core engine established: a
// pool is only ever touched by its partition's execution context (the
// partition worker inside a handler, or the VP goroutine currently running
// on that partition), so gets and puts need no locks, and objects that
// travel between ranks simply migrate from the sender's pool to the
// receiver's, exactly like the core's pooled events.
//
// The lists are run-lifetime freelist lists: a miss allocates a slab of
// objects, nothing caps a list but its own in-flight high-water (which
// keeps a pool that only receives from growing with the run's length),
// and World.Run/RunProgs drop every list when they return. So the halo
// burst of a large world is allocated once and reused by every later
// exchange, and a finished world holds no pooled memory.
//
// Payload buffers carry ownership-transfer semantics:
//
//   - an eager send copies the caller's bytes into a pooled buffer at post
//     time (the caller may reuse its buffer immediately — the broadcast
//     root does);
//   - a rendezvous send keeps only a reference at post time and copies
//     into a pooled buffer when the clear-to-send arrives, eliding the
//     defensive snapshot entirely — the sender either is blocked at that
//     moment (blocking Send) or has promised not to touch the buffer
//     before Wait (Isend, MPI's contract);
//   - internal senders that already own a pooled buffer (encoded
//     reductions, framed gathers) transfer it outright with no copy at
//     either end;
//   - the receiver's Message owns its Data buffer and may hand both back
//     with Message.Release once the payload has been consumed. Unreleased
//     messages fall to the garbage collector — correct, just slower.

// Buffer size classes are powers of two from 64 B to 1 MiB; larger
// payloads are allocated exactly and dropped on release.
const (
	minBufShift = 6
	maxBufShift = 20
	nBufClasses = maxBufShift - minBufShift + 1
)

// dpPool is one partition's data-plane free lists.
type dpPool struct {
	envs freelist.List[envelope]
	reqs freelist.List[Request]
	msgs freelist.List[Message]
	cts  freelist.List[ctsMsg]
	dms  freelist.List[dataMsg]

	bufs [nBufClasses]freelist.Stack[[]byte]

	// blk is the blocking-call state set of the partition's program VPs
	// (see Env.blocking): program steps run one at a time and every
	// closure entry point they reach finishes without parking.
	blk blockStates

	// Counters, partition-confined like the lists; World.Metrics sums
	// them after the run.
	objHits   uint64
	objMisses uint64
	bufHits   uint64
	bufMisses uint64
	// bufOut tracks pooled payload bytes currently checked out;
	// bufHighWater is its peak — the resident cost of in-flight payloads.
	bufOut       int64
	bufHighWater int64
}

// drop releases every list at the end of a run; the counters stay for
// World.Metrics.
func (p *dpPool) drop() {
	p.envs.Drop()
	p.reqs.Drop()
	p.msgs.Drop()
	p.cts.Drop()
	p.dms.Drop()
	for c := range p.bufs {
		p.bufs[c].Drop()
	}
	p.blk = blockStates{}
}

// countObj records an object get as a pool hit or a miss (a slab
// allocation).
func (p *dpPool) countObj(fresh bool) {
	if fresh {
		p.objMisses++
	} else {
		p.objHits++
	}
}

// bufClass returns the size-class index for a payload of the given size,
// or -1 if the size is above the largest pooled class.
func bufClass(size int) int {
	c := 0
	for s := size - 1; s >= 1<<minBufShift; s >>= 1 {
		c++
	}
	if c >= nBufClasses {
		return -1
	}
	return c
}

// getBuf returns a buffer of exactly size bytes backed by pooled capacity
// (its cap is the size class). Oversize requests fall through to the
// allocator.
func (p *dpPool) getBuf(size int) []byte {
	if size <= 0 {
		return nil
	}
	c := bufClass(size)
	if c < 0 {
		p.bufMisses++
		return make([]byte, size)
	}
	if b, ok := p.bufs[c].Pop(); ok {
		p.bufHits++
		p.bufCheckout(int64(cap(b)))
		return b[:size]
	}
	p.bufMisses++
	b := make([]byte, size, 1<<(minBufShift+c))
	p.bufCheckout(int64(cap(b)))
	return b
}

// putBuf returns a buffer obtained from getBuf. Buffers whose capacity is
// not an exact pooled class (oversize allocations, foreign slices) are
// dropped to the garbage collector.
func (p *dpPool) putBuf(b []byte) {
	if b == nil {
		return
	}
	c := bufClass(cap(b))
	if c < 0 || cap(b) != 1<<(minBufShift+c) {
		return
	}
	p.bufOut -= int64(cap(b))
	p.bufs[c].Push(b[:cap(b)])
}

func (p *dpPool) bufCheckout(n int64) {
	p.bufOut += n
	if p.bufOut > p.bufHighWater {
		p.bufHighWater = p.bufOut
	}
}

// getEnv returns a zeroed envelope from the free list.
func (p *dpPool) getEnv() *envelope {
	e, fresh := p.envs.Get()
	p.countObj(fresh)
	return e
}

// putEnv recycles an envelope. The caller must have transferred or
// released env.data first — putEnv drops the reference without returning
// the buffer.
func (p *dpPool) putEnv(e *envelope) { p.envs.Put(e) }

// getReq returns a zeroed request from the free list.
func (p *dpPool) getReq() *Request {
	r, fresh := p.reqs.Get()
	p.countObj(fresh)
	return r
}

// putReq recycles a request. Only internal requests that never escape to
// the application (blocking Send/Recv wrappers, collective internals) may
// be recycled: the next getReq hands the same pointer to an unrelated
// operation. The request must be complete and out of every index — stale
// in-flight events cannot resurrect it because handlers look requests up
// by id in the pending table, and a recycled request is reissued under a
// fresh id.
func (p *dpPool) putReq(r *Request) { p.reqs.Put(r) }

// getMsg returns a zeroed message header from the free list.
func (p *dpPool) getMsg() *Message {
	m, fresh := p.msgs.Get()
	p.countObj(fresh)
	return m
}

// putMsg recycles a message header (not its Data — detach or release that
// separately).
func (p *dpPool) putMsg(m *Message) { p.msgs.Put(m) }

func (p *dpPool) getCts() *ctsMsg {
	c, fresh := p.cts.Get()
	p.countObj(fresh)
	return c
}

func (p *dpPool) putCts(c *ctsMsg) { p.cts.Put(c) }

func (p *dpPool) getDm() *dataMsg {
	d, fresh := p.dms.Get()
	p.countObj(fresh)
	return d
}

func (p *dpPool) putDm(d *dataMsg) { p.dms.Put(d) }
