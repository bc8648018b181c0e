package comm

import (
	"fmt"

	"scaledl/internal/sim"
)

// This file is the whole collective surface: one party handle, one op
// descriptor and one runner. Broadcast, Reduce and AllReduce — each in its
// payload, size-only and Range form — are one-line descriptions of the same
// operation: a schedule moves a described element range between the live
// ranks, optionally carrying data. What differs between a flat and a
// hierarchical communicator is not the API but the engine behind the handle.

// engine executes collectives one segment at a time for an Endpoint. The
// flat Communicator walks its schedule directly; the HierCommunicator
// composes flat ones (intra-node gather, leader exchange, intra-node fan-out).
type engine interface {
	Size() int
	MarkDead(rank int)
	msgPlan() Plan
	// survivors returns the engine spanning the live membership and the
	// original-rank → survivor-rank table (−1 for the dead); the engine is
	// nil while every party is alive.
	survivors() (engine, []int)
	// tagOf is the contribution tag ordering rank's data in every combine.
	tagOf(rank int) int
	bcastSeg(p *sim.Proc, rank, round, si, root int, buf []float32, seg [2]int)
	reduceSeg(p *sim.Proc, rank, round, si, root int, buf []float32, seg [2]int)
	allReduceSeg(p *sim.Proc, rank, round, si int, buf []float32, seg [2]int)
	// factorAllGather allgathers factor lists (sfb.go); a nil self walks the
	// schedule size-only with elems factor elements per party.
	factorAllGather(p *sim.Proc, rank, round int, self []Factors, elems int, out []Factors) []Factors
}

// Endpoint is one party's handle into a Communicator or HierCommunicator;
// collective methods are issued through it from the party's own simulated
// process. Every party must issue the same sequence of collectives with
// matching round numbers (MPI semantics); distinct rounds may be in flight
// concurrently.
type Endpoint struct {
	e    engine
	rank int
}

func newEndpoint(e engine, rank int) *Endpoint {
	if rank < 0 || rank >= e.Size() {
		panic(fmt.Sprintf("comm: endpoint %d of %d parties", rank, e.Size()))
	}
	return &Endpoint{e: e, rank: rank}
}

// Rank returns the party rank (the global rank on a hierarchical endpoint).
func (ep *Endpoint) Rank() int { return ep.rank }

// MarkDead declares party rank dead on the endpoint's communicator (see
// Communicator.MarkDead and HierCommunicator.MarkDead); every surviving
// party must call it.
func (ep *Endpoint) MarkDead(rank int) { ep.e.MarkDead(rank) }

// live follows the survivor chain: once parties have died, a collective runs
// on the engine spanning exactly the live membership (recursively, if deaths
// have stacked), with this party's rank — and root, for a rooted collective —
// remapped into it.
func (ep *Endpoint) live(root int, rooted bool) (engine, int, int) {
	e, rank := ep.e, ep.rank
	for sub, liveOf := e.survivors(); sub != nil; sub, liveOf = e.survivors() {
		rank = liveRank(liveOf, rank)
		if rooted {
			root = liveRank(liveOf, root)
		}
		e = sub
	}
	return e, rank, root
}

// liveRank maps an original rank through a survivor table.
func liveRank(liveOf []int, rank int) int {
	if liveOf[rank] < 0 {
		panic(fmt.Sprintf("comm: dead rank %d used in a collective", rank))
	}
	return liveOf[rank]
}

type opKind int

const (
	opBroadcast opKind = iota
	opReduce
	opAllReduce
)

// op describes one collective call. It travels by value and never outlives
// the call, so issuing a collective allocates nothing for its description.
type op struct {
	kind        opKind
	round, root int
	buf         []float32 // the full model vector; nil walks the schedule size-only
	lo, hi      int       // the element range moved (set by run when whole)
	whole       bool      // the whole plan, one segment per plan message
}

// run executes one collective. The steps happen here and nowhere else:
// survivor delegation, validation (a non-nil buffer must match the plan, a
// range must lie inside it — checked before the single-party return, so a
// malformed call fails at every scale), the single-party no-op, the unpacked
// plan's gather/scatter staging (the cost packed layouts avoid — §5.2's
// second effect; every party stages concurrently and pro rata to the bytes
// moved, so bucketed staging sums to exactly the monolithic pass), and the
// segment loop: the plan's message segments, or the one [lo,hi) range.
func (ep *Endpoint) run(p *sim.Proc, o op) {
	e, rank, root := ep.live(o.root, o.kind != opAllReduce)
	plan := e.msgPlan()
	total := plan.TotalBytes()
	if o.buf != nil && int64(len(o.buf))*4 != total {
		panic(fmt.Sprintf("comm: buffer of %d elements does not match plan of %d bytes", len(o.buf), total))
	}
	if o.whole {
		o.lo, o.hi = 0, int(total/4)
	} else if o.lo < 0 || o.hi < o.lo || int64(o.hi)*4 > total {
		panic(fmt.Sprintf("comm: range [%d,%d) outside plan of %d bytes", o.lo, o.hi, total))
	}
	if e.Size() == 1 {
		return
	}
	if !plan.Packed && plan.GatherBW > 0 && len(plan.LayerBytes) > 0 {
		p.Delay(float64(int64(o.hi-o.lo)*4) / plan.GatherBW)
	}
	// A single segment — a Range's [lo,hi), a packed plan's whole model —
	// lives in this stack slot, so only per-layer walks allocate their list.
	var slot [1][2]int
	segs := slot[:0]
	if o.whole {
		segs = planSegments(segs, plan)
	} else {
		segs = append(segs, [2]int{o.lo, o.hi})
	}
	for si, seg := range segs {
		switch o.kind {
		case opBroadcast:
			e.bcastSeg(p, rank, o.round, si, root, o.buf, seg)
		case opReduce:
			e.reduceSeg(p, rank, o.round, si, root, o.buf, seg)
		default:
			e.allReduceSeg(p, rank, o.round, si, o.buf, seg)
		}
	}
}

// ---- whole-plan collectives ----
//
// The payload forms take the party's full model vector; the Size forms (and
// a nil buf) walk the same message schedule moving no data — for cost-only
// experiments at sizes too large to materialize.

// Broadcast distributes root's buf to every party's buf under the engine's
// schedule (ring and RHD, which are allreduce shapes, fall back to the tree).
// Hierarchically, a non-leader root first hands its payload to its group's
// leader, leaders broadcast over the fabric and every group fans out locally.
func (ep *Endpoint) Broadcast(p *sim.Proc, round, root int, buf []float32) {
	ep.run(p, op{kind: opBroadcast, round: round, root: root, buf: buf, whole: true})
}

// BroadcastSize is the size-only Broadcast.
func (ep *Endpoint) BroadcastSize(p *sim.Proc, round, root int) {
	ep.run(p, op{kind: opBroadcast, round: round, root: root, whole: true})
}

// Reduce combines every party's buf contribution at root: root's buf
// becomes the rank-ordered elementwise sum (bit-identical to ReduceSum
// over the parties in rank order); other parties' bufs are unchanged.
func (ep *Endpoint) Reduce(p *sim.Proc, round, root int, buf []float32) {
	ep.run(p, op{kind: opReduce, round: round, root: root, buf: buf, whole: true})
}

// ReduceSize is the size-only Reduce.
func (ep *Endpoint) ReduceSize(p *sim.Proc, round, root int) {
	ep.run(p, op{kind: opReduce, round: round, root: root, whole: true})
}

// AllReduce leaves every party's buf holding the rank-ordered sum of all
// contributions — bit-identical to ReduceSum in rank order for every flat
// schedule and every hierarchical (intra, inter) schedule pair.
func (ep *Endpoint) AllReduce(p *sim.Proc, round int, buf []float32) {
	ep.run(p, op{kind: opAllReduce, round: round, buf: buf, whole: true})
}

// AllReduceSize is the size-only AllReduce.
func (ep *Endpoint) AllReduceSize(p *sim.Proc, round int) {
	ep.run(p, op{kind: opAllReduce, round: round, whole: true})
}

// ---- bucketed (range) collectives ----
//
// The Range forms are the streaming path's collectives: each moves one
// [lo,hi) element subrange of the model vector — typically one Bucketizer
// bucket — as a single message segment. Distinct concurrent calls must use
// distinct round numbers; selective receive and per-key round barriers keep
// any number of rounds in flight apart, which is what lets bucket k+1's
// collective overlap bucket k's wire time and the tail of backprop.

// BroadcastRange distributes root's buf[lo:hi] to every party.
func (ep *Endpoint) BroadcastRange(p *sim.Proc, round, root int, buf []float32, lo, hi int) {
	ep.run(p, op{kind: opBroadcast, round: round, root: root, buf: buf, lo: lo, hi: hi})
}

// ReduceRange reduces buf[lo:hi] to root (rank-ordered sum at root, other
// bufs unchanged).
func (ep *Endpoint) ReduceRange(p *sim.Proc, round, root int, buf []float32, lo, hi int) {
	ep.run(p, op{kind: opReduce, round: round, root: root, buf: buf, lo: lo, hi: hi})
}

// AllReduceRange allreduces buf[lo:hi]: every party ends with the
// rank-ordered sum of the range's contributions, bit-identical to the same
// range of a monolithic AllReduce.
func (ep *Endpoint) AllReduceRange(p *sim.Proc, round int, buf []float32, lo, hi int) {
	ep.run(p, op{kind: opAllReduce, round: round, buf: buf, lo: lo, hi: hi})
}
