package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Internal collective tags live in the negative tag space so they never
// collide with application tags (which must be non-negative).
const (
	tagBarrierIn = -10 - iota
	tagBarrierOut
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAlltoall
	tagAllgather
	// TagULFMBase is the first internal tag available to the ULFM
	// extension package.
	TagULFMBase = -100
)

// Collectives are built from the same point-to-point primitives the
// application uses, so they inherit the pooled-event discipline for free:
// every hop emits by value and only envelope payloads cross the engine
// boundary. Their requests never escape to the application, so they are
// recycled as each hop completes, and every hop's message is released (or
// its payload detached) once consumed — a long reduction chain runs on a
// handful of pooled objects.
//
// Each algorithm (linear, as in the paper, and the binomial-tree ablation)
// is written once, as a resumable state machine over hopStates
// (CollectiveState below). The blocking methods (Barrier, Bcast, ...)
// drive the process's CollectiveState to completion with Env.Drive;
// programs step their own with CollectiveStep.

// sendTag performs a blocking internal send (raw error, no handler) on
// the process's hop state; the request is recycled on return. The ULFM
// operations use it for their report/result traffic.
func (c *Comm) sendTag(dst, tag, size int, data []byte) error {
	h := &c.env.blocking().hop
	c.hopSend(h, dst, tag, size, data)
	_, err := c.driveHop(h)
	return err
}

// recvTag performs a blocking internal receive (raw error, no handler).
// The caller owns the returned message: it must Release it (or detach its
// Data) once consumed.
func (c *Comm) recvTag(src, tag int) (*Message, error) {
	h := &c.env.blocking().hop
	c.hopRecv(h, src, tag)
	return c.driveHop(h)
}

// driveHop drives a posted hop to completion.
func (c *Comm) driveHop(h *hopState) (msg *Message, err error) {
	c.env.Drive(func(any) (done bool, park any) {
		done, park, msg, err = c.hopStep(h)
		return done, park
	})
	return msg, err
}

// detachData takes the payload out of a message that is about to escape to
// the caller and releases the header: the buffer leaves the pool's custody,
// the header is recycled.
func detachData(msg *Message) []byte {
	data := msg.Data
	msg.Data = nil
	msg.Release()
	return data
}

// collective arms the process's CollectiveState with begin and drives it
// to completion, returning the results (byte payload, floats, per-rank
// parts — whichever the collective produces) and the raw error. The state
// is reset before returning, so it pins no buffers while idle and is free
// for a collective the error handler may run; callers apply the handler
// only after taking the results.
func (c *Comm) collective(begin func(*CollectiveState)) (data []byte, acc []float64, out [][]byte, err error) {
	cs := &c.env.blocking().coll
	begin(cs)
	c.env.Drive(func(any) (done bool, park any) {
		done, park, err = c.collectiveStep(cs)
		return done, park
	})
	data, acc, out = cs.data, cs.acc, cs.out
	cs.arm(collNone)
	if err != nil {
		return nil, nil, nil, err
	}
	return data, acc, out, nil
}

// Barrier blocks until every member reaches it. With the paper's linear
// algorithm, every rank reports to rank 0, which then releases every rank;
// a failure anywhere is detected here by timeout — the paper's "failure
// during the checkpoint phase is detected in the following barrier".
func (c *Comm) Barrier() error {
	_, _, _, err := c.collective((*CollectiveState).BeginBarrier)
	return c.handleError(err)
}

// Bcast broadcasts root's data to every member; every rank returns the
// broadcast payload. Non-root callers pass nil.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	out, _, _, err := c.collective(func(cs *CollectiveState) { cs.BeginBcast(root, data) })
	return out, c.handleError(err)
}

// ReduceOp folds src into dst elementwise; both slices have equal length.
type ReduceOp func(dst, src []float64)

// Predefined reduction operations.
var (
	// OpSum adds elementwise.
	OpSum ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	// OpMax takes the elementwise maximum.
	OpMax ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	}
	// OpMin takes the elementwise minimum.
	OpMin ReduceOp = func(dst, src []float64) {
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	}
)

// Reduce folds every member's contribution at root with op. The root
// returns the reduction, others return nil.
func (c *Comm) Reduce(root int, contrib []float64, op ReduceOp) ([]float64, error) {
	_, out, _, err := c.collective(func(cs *CollectiveState) { cs.BeginReduce(root, contrib, op) })
	return out, c.handleError(err)
}

// Allreduce folds every member's contribution and distributes the result
// to every member (implemented as a reduce to rank 0 plus a broadcast,
// matching linear-algorithm MPI implementations).
func (c *Comm) Allreduce(contrib []float64, op ReduceOp) ([]float64, error) {
	_, out, _, err := c.collective(func(cs *CollectiveState) { cs.BeginAllreduce(contrib, op) })
	return out, c.handleError(err)
}

// Gather collects every member's data at root in rank order. The root
// returns one slice per rank, others return nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	_, _, out, err := c.collective(func(cs *CollectiveState) { cs.BeginGather(root, data) })
	return out, c.handleError(err)
}

// Scatter distributes parts[i] from root to rank i; every rank returns its
// part. Non-root callers pass nil.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	out, _, _, err := c.collective(func(cs *CollectiveState) { cs.BeginScatter(root, parts) })
	return out, c.handleError(err)
}

// Allgather collects every member's data at every member, in rank order
// (gather to rank 0 plus a broadcast of the framed result).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	_, _, out, err := c.collective(func(cs *CollectiveState) { cs.BeginAllgather(data) })
	return out, c.handleError(err)
}

// Alltoall sends parts[i] to rank i and returns one received slice per
// rank. Receives are posted before sends so the exchange cannot deadlock
// under the rendezvous protocol.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	_, _, out, err := c.collective(func(cs *CollectiveState) { cs.BeginAlltoall(parts) })
	return out, c.handleError(err)
}

// hopState is one internal blocking hop of a collective algorithm: post
// the request, park on its WaitState, recycle it at completion.
type hopState struct {
	ws  WaitState
	req *Request
}

// inFlight reports whether a hop has been posted and not yet completed;
// the per-kind machines use it to distinguish "start the next hop" from
// "resume the parked one".
func (h *hopState) inFlight() bool { return h.req != nil }

// hopSend posts a send hop.
func (c *Comm) hopSend(h *hopState, dst, tag, size int, data []byte) {
	h.req = c.isendTag(dst, tag, size, data)
	h.ws.Begin(h.req)
}

// hopSendOwned posts a send hop whose pooled buffer transfers to the MPI
// layer: the payload travels with no copy at either end.
func (c *Comm) hopSendOwned(h *hopState, dst, tag, size int, data []byte) {
	h.req = c.isendOwned(dst, tag, size, data)
	h.ws.Begin(h.req)
}

// hopRecv posts a receive hop.
func (c *Comm) hopRecv(h *hopState, src, tag int) {
	h.req = c.irecvTag(src, tag)
	h.ws.Begin(h.req)
}

// hopStep advances the hop; on done the caller owns msg (nil for sends):
// it must Release it (or detach its Data) once consumed. The request has
// been recycled.
func (c *Comm) hopStep(h *hopState) (done bool, park any, msg *Message, err error) {
	done, park, err = c.env.waitStep(&h.ws)
	if !done {
		return false, park, nil, nil
	}
	req := h.req
	h.req = nil
	msg = req.msg
	req.msg = nil
	c.env.ps.dp.putReq(req)
	if err != nil {
		if msg != nil {
			msg.Release()
		}
		return true, nil, nil, err
	}
	return true, nil, msg, nil
}

// collKind identifies the armed collective.
type collKind uint8

const (
	collNone collKind = iota
	collBarrier
	collBcast
	collReduce
	collAllreduce
	collGather
	collScatter
	collAllgather
	collAlltoall
)

// CollectiveState carries one collective operation across steps: the
// state behind Barrier/Bcast/Reduce/Allreduce/Gather/Scatter/Allgather/
// Alltoall. Arm it with the matching Begin method, then call
// CollectiveStep from every program step until it reports done; read the
// result with Bytes/Floats/Parts. Zero value ready; reused collective
// after collective. One state drives one collective at a time.
type CollectiveState struct {
	kind    collKind
	counted bool
	// phase/sub/r/mask are the resumable algorithm counters: phase is the
	// per-algorithm program counter, sub sequences composite collectives
	// (allreduce = reduce+bcast, allgather = gather+bcast), r is the
	// linear rank cursor, mask the tree mask.
	phase int
	sub   int
	r     int
	mask  int

	// Operands (set by Begin) and results.
	root    int
	tag     int
	size    int
	data    []byte
	parts   [][]byte
	contrib []float64
	op      ReduceOp
	acc     []float64
	out     [][]byte

	hop hopState
	// ws and reqs/recvs serve alltoall's single posted-all wait.
	ws    WaitState
	reqs  []*Request
	recvs []*Request
}

// arm resets the machine for a new collective, keeping the slice
// capacities (request sets, wait sets) the state has already grown.
func (cs *CollectiveState) arm(kind collKind) {
	cs.kind = kind
	cs.counted = false
	cs.phase = 0
	cs.sub = 0
	cs.r = 0
	cs.mask = 0
	cs.root = 0
	cs.tag = 0
	cs.size = 0
	cs.data = nil
	cs.parts = nil
	cs.contrib = nil
	cs.op = nil
	cs.acc = nil
	cs.out = nil
	cs.reqs = cs.reqs[:0]
	cs.recvs = cs.recvs[:0]
}

// BeginBarrier arms a Barrier.
func (cs *CollectiveState) BeginBarrier() { cs.arm(collBarrier) }

// BeginBcast arms a Bcast of root's data; non-root callers pass nil.
// Bytes returns the broadcast payload on done.
func (cs *CollectiveState) BeginBcast(root int, data []byte) {
	cs.arm(collBcast)
	cs.root = root
	cs.data = data
	cs.size = len(data)
	cs.tag = tagBcast
}

// BeginReduce arms a Reduce of contrib at root with op. Floats returns
// the reduction at the root (nil elsewhere) on done.
func (cs *CollectiveState) BeginReduce(root int, contrib []float64, op ReduceOp) {
	cs.arm(collReduce)
	cs.root = root
	cs.contrib = contrib
	cs.op = op
}

// BeginAllreduce arms an Allreduce; Floats returns the reduction on done.
func (cs *CollectiveState) BeginAllreduce(contrib []float64, op ReduceOp) {
	cs.arm(collAllreduce)
	cs.contrib = contrib
	cs.op = op
}

// BeginGather arms a Gather of data at root; Parts returns one slice per
// rank at the root (nil elsewhere) on done.
func (cs *CollectiveState) BeginGather(root int, data []byte) {
	cs.arm(collGather)
	cs.root = root
	cs.data = data
	cs.tag = tagGather
}

// BeginScatter arms a Scatter of parts from root; non-root callers pass
// nil. Bytes returns this rank's part on done.
func (cs *CollectiveState) BeginScatter(root int, parts [][]byte) {
	cs.arm(collScatter)
	cs.root = root
	cs.parts = parts
}

// BeginAllgather arms an Allgather; Parts returns one slice per rank on
// done.
func (cs *CollectiveState) BeginAllgather(data []byte) {
	cs.arm(collAllgather)
	cs.data = data
}

// BeginAlltoall arms an Alltoall of parts[i] to rank i; Parts returns
// one received slice per rank on done.
func (cs *CollectiveState) BeginAlltoall(parts [][]byte) {
	cs.arm(collAlltoall)
	cs.parts = parts
}

// Bytes returns the byte-slice result (Bcast: the broadcast payload;
// Scatter: this rank's part) after CollectiveStep reports done.
func (cs *CollectiveState) Bytes() []byte { return cs.data }

// Floats returns the float result (Reduce at the root, Allreduce
// everywhere) after CollectiveStep reports done.
func (cs *CollectiveState) Floats() []float64 { return cs.acc }

// Parts returns the per-rank result (Gather at the root, Allgather,
// Alltoall) after CollectiveStep reports done.
func (cs *CollectiveState) Parts() [][]byte { return cs.out }

// CollectiveStep advances the armed collective. It returns done == false
// with the park value to return from Step, or done == true with the
// operation's error after the communicator's error handler ran (with
// ErrorsAreFatal a process-failure error aborts and this call does not
// return), exactly like the blocking methods.
func (c *Comm) CollectiveStep(cs *CollectiveState) (done bool, park any, err error) {
	done, park, err = c.collectiveStep(cs)
	if done && err != nil {
		err = c.handleError(err)
	}
	return done, park, err
}

// collectiveStep is CollectiveStep with the raw error: the one
// implementation of every collective, stepped by programs and driven by
// the blocking methods.
func (c *Comm) collectiveStep(cs *CollectiveState) (done bool, park any, err error) {
	if !cs.counted {
		c.env.w.m.countCollective(c.env.Rank())
		cs.counted = true
	}
	switch cs.kind {
	case collBarrier:
		return c.stepBarrier(cs)
	case collBcast:
		return c.stepBcast(cs)
	case collReduce:
		return c.stepReduce(cs)
	case collAllreduce:
		return c.stepAllreduce(cs)
	case collGather:
		return c.stepGather(cs)
	case collScatter:
		return c.stepScatter(cs)
	case collAllgather:
		return c.stepAllgather(cs)
	case collAlltoall:
		return c.stepAlltoall(cs)
	default:
		panic("mpi: CollectiveStep without a Begin")
	}
}

// Tree-phase numbers shared by the machines: the binomial-tree broadcast
// is reachable both from stepBcast and (as the release wave, without a
// fresh entry charge) from the tree barrier.
const (
	phaseTreeBcastRecv = 10
	phaseTreeBcastSend = 11
	phaseTreeReduce    = 20
	phaseTreeGather    = 30
)

// stepBarrier is Barrier: linear (every rank reports to rank 0, which
// then releases everyone) or a zero-byte tree gather plus tree bcast.
func (c *Comm) stepBarrier(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("barrier"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if n == 1 {
				return true, nil, nil
			}
			if c.env.w.cfg.Collectives == Tree {
				cs.mask = 1
				cs.phase = phaseTreeGather
			} else if c.rank == 0 {
				cs.r = 1
				cs.phase = 1
			} else {
				cs.phase = 3
			}
		case 1: // linear rank 0: collect arrivals in rank order
			for cs.r < n {
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, cs.r, tagBarrierIn)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				msg.Release()
				cs.r++
			}
			cs.r = 1
			cs.phase = 2
		case 2: // linear rank 0: release everyone
			for cs.r < n {
				if !cs.hop.inFlight() {
					c.hopSend(&cs.hop, cs.r, tagBarrierOut, 0, nil)
				}
				hd, park, _, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.r++
			}
			return true, nil, nil
		case 3: // linear non-root: report to rank 0
			if !cs.hop.inFlight() {
				c.hopSend(&cs.hop, 0, tagBarrierIn, 0, nil)
			}
			hd, park, _, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			cs.phase = 4
		case 4: // linear non-root: wait for the release
			if !cs.hop.inFlight() {
				c.hopRecv(&cs.hop, 0, tagBarrierOut)
			}
			hd, park, msg, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			msg.Release()
			return true, nil, nil
		case phaseTreeGather: // tree: gather the zero-byte arrival signal to rank 0
			vrank := c.rank
			for cs.mask < n {
				if vrank&cs.mask != 0 {
					// Report to the parent; the gather ends here.
					if !cs.hop.inFlight() {
						c.hopSend(&cs.hop, vrank-cs.mask, tagBarrierIn, 0, nil)
					}
					hd, park, _, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
					break
				}
				if child := vrank | cs.mask; child < n {
					if !cs.hop.inFlight() {
						c.hopRecv(&cs.hop, child, tagBarrierIn)
					}
					hd, park, msg, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
					msg.Release()
				}
				cs.mask <<= 1
			}
			// Release wave: a zero-byte tree bcast from rank 0 without a
			// fresh entry charge.
			cs.root = 0
			cs.tag = tagBarrierOut
			cs.size = 0
			cs.data = nil
			cs.mask = 0
			cs.phase = phaseTreeBcastRecv
		case phaseTreeBcastRecv, phaseTreeBcastSend:
			return c.stepTreeBcast(cs)
		default:
			panic(fmt.Sprintf("mpi: barrier state machine in phase %d", cs.phase))
		}
	}
}

// stepBcast broadcasts cs.data (cs.size bytes, tag cs.tag) from cs.root:
// linear (the root sends to every rank in order) or along a binomial
// tree. The result lands in cs.data.
func (c *Comm) stepBcast(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("bcast"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if n == 1 {
				return true, nil, nil
			}
			if c.env.w.cfg.Collectives == Tree {
				cs.phase = phaseTreeBcastRecv
			} else if c.rank == cs.root {
				cs.r = 0
				cs.phase = 1
			} else {
				cs.phase = 2
			}
		case 1: // linear root: send to everyone in rank order
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopSend(&cs.hop, cs.r, cs.tag, cs.size, cs.data)
				}
				hd, park, _, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.r++
			}
			return true, nil, nil
		case 2: // linear non-root: receive from the root
			if !cs.hop.inFlight() {
				c.hopRecv(&cs.hop, cs.root, cs.tag)
			}
			hd, park, msg, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			cs.data = detachData(msg)
			return true, nil, nil
		case phaseTreeBcastRecv, phaseTreeBcastSend:
			return c.stepTreeBcast(cs)
		default:
			panic(fmt.Sprintf("mpi: bcast state machine in phase %d", cs.phase))
		}
	}
}

// stepTreeBcast broadcasts along a binomial tree rooted at cs.root (the
// standard MPICH-style algorithm): phase phaseTreeBcastRecv walks the
// mask to this rank's parent bit and receives (at most one hop), phase
// phaseTreeBcastSend forwards to the children. The result lands in
// cs.data.
func (c *Comm) stepTreeBcast(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	vrank := (c.rank - cs.root + n) % n
	for {
		switch cs.phase {
		case phaseTreeBcastRecv:
			if cs.mask == 0 {
				cs.mask = 1
			}
			for cs.mask < n && vrank&cs.mask == 0 {
				cs.mask <<= 1
			}
			if cs.mask < n {
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, (vrank-cs.mask+cs.root)%n, cs.tag)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.data = detachData(msg)
			}
			cs.mask >>= 1
			cs.phase = phaseTreeBcastSend
		case phaseTreeBcastSend:
			for cs.mask > 0 {
				if vrank+cs.mask < n {
					if !cs.hop.inFlight() {
						c.hopSend(&cs.hop, (vrank+cs.mask+cs.root)%n, cs.tag, cs.size, cs.data)
					}
					hd, park, _, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
				}
				cs.mask >>= 1
			}
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: tree bcast state machine in phase %d", cs.phase))
		}
	}
}

// stepReduce folds cs.contrib at cs.root with cs.op; the result lands in
// cs.acc (root only). The linear algorithm folds contributions in rank
// order, which keeps the result deterministic even for non-associative
// floating-point ops; the binomial tree folds in a different order, so
// its results may differ in the last bits — the usual MPI caveat. Each
// hop decodes into the per-process scratch and releases its message.
func (c *Comm) stepReduce(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("reduce"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if n == 1 {
				cs.acc = append([]float64(nil), cs.contrib...)
				return true, nil, nil
			}
			if c.env.w.cfg.Collectives == Tree {
				cs.phase = phaseTreeReduce
			} else if c.rank != cs.root {
				cs.phase = 1
			} else {
				cs.acc = append([]float64(nil), cs.contrib...)
				cs.r = 0
				cs.phase = 2
			}
		case 1: // linear non-root: ship the encoded contribution
			if !cs.hop.inFlight() {
				c.hopSendOwned(&cs.hop, cs.root, tagReduce, 8*len(cs.contrib), encodeF64sPool(c.env.ps.dp, cs.contrib))
			}
			hd, park, _, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			return true, nil, err
		case 2: // linear root: fold contributions in rank order
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, cs.r, tagReduce)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				vals := c.env.ps.scratchF64(len(cs.contrib))
				if err := decodeF64sInto(vals, msg.Data); err != nil {
					return true, nil, err
				}
				cs.op(cs.acc, vals)
				msg.Release()
				cs.r++
			}
			return true, nil, nil
		case phaseTreeReduce: // tree: fold along a binomial tree rooted at cs.root
			vrank := (c.rank - cs.root + n) % n
			if cs.mask == 0 {
				cs.mask = 1
				cs.acc = append([]float64(nil), cs.contrib...)
			}
			for cs.mask < n {
				if vrank&cs.mask != 0 {
					if !cs.hop.inFlight() {
						c.hopSendOwned(&cs.hop, (vrank-cs.mask+cs.root)%n, tagReduce, 8*len(cs.acc), encodeF64sPool(c.env.ps.dp, cs.acc))
					}
					hd, park, _, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					cs.acc = nil // non-roots return nil
					return true, nil, err
				}
				if child := vrank | cs.mask; child < n {
					if !cs.hop.inFlight() {
						c.hopRecv(&cs.hop, (child+cs.root)%n, tagReduce)
					}
					hd, park, msg, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
					vals := c.env.ps.scratchF64(len(cs.acc))
					if err := decodeF64sInto(vals, msg.Data); err != nil {
						return true, nil, err
					}
					cs.op(cs.acc, vals)
					msg.Release()
				}
				cs.mask <<= 1
			}
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: reduce state machine in phase %d", cs.phase))
		}
	}
}

// stepAllreduce is a reduce to rank 0 (sub 0) followed by a broadcast of
// the encoded result (sub 1). The result lands in cs.acc on every rank.
func (c *Comm) stepAllreduce(cs *CollectiveState) (done bool, park any, err error) {
	if cs.sub == 0 {
		cs.root = 0
		done, park, err := c.stepReduce(cs)
		if !done {
			return false, park, nil
		}
		if err != nil {
			return true, nil, err
		}
		cs.sub = 1
		cs.phase = 0
		cs.r = 0
		cs.mask = 0
		cs.tag = tagBcast
		cs.size = 8 * len(cs.contrib)
		if c.rank == 0 {
			cs.data = encodeF64sPool(c.env.ps.dp, cs.acc)
		} else {
			cs.data = nil
		}
	}
	done, park, err = c.stepBcast(cs)
	if !done {
		return false, park, nil
	}
	dp := c.env.ps.dp
	buf := cs.data
	cs.data = nil
	if err != nil {
		return true, nil, err
	}
	if c.rank == 0 {
		// The root already holds the reduction, and decode(encode(x)) is
		// bit-identical for float64: skip the round-trip and release the
		// broadcast buffer (bcast copied it per send).
		dp.putBuf(buf)
		return true, nil, nil
	}
	out, err := decodeF64s(buf, len(cs.contrib))
	dp.putBuf(buf)
	cs.acc = out
	return true, nil, err
}

// stepGather collects cs.data at cs.root in rank order (tag cs.tag); the
// per-rank result lands in cs.out (root only).
func (c *Comm) stepGather(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("gather"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if c.rank != cs.root {
				cs.phase = 1
			} else {
				cs.out = make([][]byte, n)
				cs.out[cs.root] = append([]byte(nil), cs.data...)
				cs.r = 0
				cs.phase = 2
			}
		case 1: // non-root: ship this rank's data
			if !cs.hop.inFlight() {
				c.hopSend(&cs.hop, cs.root, cs.tag, len(cs.data), cs.data)
			}
			hd, park, _, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			return true, nil, err
		case 2: // root: collect in rank order
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, cs.r, cs.tag)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.out[cs.r] = detachData(msg)
				cs.r++
			}
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: gather state machine in phase %d", cs.phase))
		}
	}
}

// stepScatter sends cs.parts[i] from cs.root to rank i; this rank's part
// lands in cs.data.
func (c *Comm) stepScatter(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("scatter"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if c.rank == cs.root {
				if len(cs.parts) != n {
					return true, nil, fmt.Errorf("mpi: scatter needs %d parts, got %d", n, len(cs.parts))
				}
				cs.r = 0
				cs.phase = 1
			} else {
				cs.phase = 2
			}
		case 1: // root: send each part in rank order
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopSend(&cs.hop, cs.r, tagScatter, len(cs.parts[cs.r]), cs.parts[cs.r])
				}
				hd, park, _, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.r++
			}
			cs.data = append([]byte(nil), cs.parts[cs.root]...)
			return true, nil, nil
		case 2: // non-root: receive this rank's part
			if !cs.hop.inFlight() {
				c.hopRecv(&cs.hop, cs.root, tagScatter)
			}
			hd, park, msg, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			cs.data = detachData(msg)
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: scatter state machine in phase %d", cs.phase))
		}
	}
}

// stepAllgather is a gather to rank 0 (sub 0) followed by a broadcast of
// the framed result (sub 1). The per-rank result lands in cs.out on every
// rank.
func (c *Comm) stepAllgather(cs *CollectiveState) (done bool, park any, err error) {
	dp := c.env.ps.dp
	if cs.sub == 0 {
		cs.root = 0
		cs.tag = tagAllgather
		done, park, err := c.stepGather(cs)
		if !done {
			return false, park, nil
		}
		if err != nil {
			return true, nil, err
		}
		cs.sub = 1
		cs.phase = 0
		cs.r = 0
		cs.mask = 0
		if c.rank == 0 {
			framed := framePool(dp, cs.out)
			// The gathered per-rank buffers are folded into the frame now;
			// release the pooled ones (rank 0's own part is a fresh copy).
			for r, p := range cs.out {
				if r != c.rank {
					dp.putBuf(p)
				}
			}
			cs.data = framed
			cs.size = len(framed)
		} else {
			cs.data = nil
			cs.size = 0
		}
		cs.out = nil
	}
	done, park, err = c.stepBcast(cs)
	if !done {
		return false, park, nil
	}
	framed := cs.data
	cs.data = nil
	if err != nil {
		return true, nil, err
	}
	out, err := unframe(framed)
	dp.putBuf(framed)
	cs.out = out
	return true, nil, err
}

// stepAlltoall posts every receive before any send (so the exchange
// cannot deadlock under the rendezvous protocol), waits on all of them at
// once, then detaches the per-rank payloads. The result lands in cs.out.
func (c *Comm) stepAlltoall(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	switch cs.phase {
	case 0:
		if err := c.checkRevoked("alltoall"); err != nil {
			return true, nil, err
		}
		c.env.chargeCall()
		if len(cs.parts) != n {
			return true, nil, fmt.Errorf("mpi: alltoall needs %d parts, got %d", n, len(cs.parts))
		}
		for r := 0; r < n; r++ {
			if r == c.rank {
				continue
			}
			req := c.irecvTag(r, tagAlltoall)
			cs.recvs = append(cs.recvs, req)
			cs.reqs = append(cs.reqs, req)
		}
		for r := 0; r < n; r++ {
			if r == c.rank {
				continue
			}
			cs.reqs = append(cs.reqs, c.isendTag(r, tagAlltoall, len(cs.parts[r]), cs.parts[r]))
		}
		cs.ws.Begin(cs.reqs...)
		cs.phase = 1
		fallthrough
	case 1:
		done, park, err = c.env.waitStep(&cs.ws)
		if !done {
			return false, park, nil
		}
		if err != nil {
			// Error paths leave the requests to the garbage collector.
			return true, nil, err
		}
		out := make([][]byte, n)
		out[c.rank] = append([]byte(nil), cs.parts[c.rank]...)
		i := 0
		for r := 0; r < n; r++ {
			if r == c.rank {
				continue
			}
			out[r] = detachData(cs.recvs[i].msg)
			cs.recvs[i].msg = nil
			i++
		}
		// None of the requests escaped; recycle them all and drop the
		// references so the idle state does not pin the recycled requests.
		dp := c.env.ps.dp
		for i, req := range cs.reqs {
			dp.putReq(req)
			cs.reqs[i] = nil
		}
		cs.reqs = cs.reqs[:0]
		for i := range cs.recvs {
			cs.recvs[i] = nil
		}
		cs.recvs = cs.recvs[:0]
		cs.out = out
		return true, nil, nil
	default:
		panic(fmt.Sprintf("mpi: alltoall state machine in phase %d", cs.phase))
	}
}

// encodeF64s encodes floats little-endian.
func encodeF64s(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// encodeF64sPool is encodeF64s into a pooled buffer; the caller owns it
// (transfer it with sendTagOwned or release it with putBuf).
func encodeF64sPool(dp *dpPool, vals []float64) []byte {
	buf := dp.getBuf(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// decodeF64sInto decodes len(dst) floats into dst, the in-place variant of
// decodeF64s for the collectives' scratch slice.
func decodeF64sInto(dst []float64, buf []byte) error {
	if len(buf) != 8*len(dst) {
		return fmt.Errorf("mpi: reduce payload is %d bytes, want %d floats", len(buf), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// scratchF64 returns the process's reusable n-float scratch slice.
func (ps *procState) scratchF64(n int) []float64 {
	if cap(ps.f64s) < n {
		ps.f64s = make([]float64, n)
	}
	return ps.f64s[:n]
}

// decodeF64s decodes exactly n floats. The n bound is checked before the
// 8*n multiply: for huge n the product wraps, which would let a corrupt
// count slip past the length comparison into a giant allocation.
func decodeF64s(buf []byte, n int) ([]float64, error) {
	if n < 0 || n > len(buf)/8 || len(buf) != 8*n {
		return nil, fmt.Errorf("mpi: reduce payload is %d bytes, want %d floats", len(buf), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// frame length-prefixes a slice of byte slices into one buffer.
func frame(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	buf := make([]byte, 0, total)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	for _, p := range parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// framePool is frame into a pooled buffer; the caller owns it. The appends
// stay within the buffer's capacity, so the pooled backing array survives
// for a later putBuf.
func framePool(dp *dpPool, parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	buf := dp.getBuf(total)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	for _, p := range parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// unframe reverses frame.
func unframe(buf []byte) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("mpi: framed buffer too short")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	// Each part carries at least its own 4-byte length prefix, so a count
	// beyond len(buf)/4 cannot be satisfied; reject it before sizing the
	// output (a hostile count field would otherwise drive a multi-gigabyte
	// allocation).
	if n < 0 || n > len(buf)/4 {
		return nil, fmt.Errorf("mpi: framed buffer claims %d parts in %d bytes", n, len(buf))
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("mpi: framed buffer truncated at part %d", i)
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return nil, fmt.Errorf("mpi: framed part %d truncated", i)
		}
		out[i] = append([]byte(nil), buf[:l]...)
		buf = buf[l:]
	}
	return out, nil
}
