package comm

import (
	"fmt"

	"scaledl/internal/sim"
)

// This file is the hierarchical (two-level) collective engine: collectives
// over nodes×GPUs parties on a composed topology (NewMultiLevel) that never
// put every GPU on the fabric. It is an engine, not an API: a
// HierCommunicator is a composition of flat Communicators (one per node plus
// one over the leaders) that implements the same per-segment interface the
// flat one does, and hands out the same Endpoint — so every collective form
// in endpoint.go (payload, nil buffer = size-only, Range) runs two-level
// with no code of its own here. The allreduce is the classic structure of
// multi-node multi-GPU training (the paper's 16-node clusters, FireCaffe's
// reduction trees, NCCL's intra/inter split):
//
//	intra-node reduce  → the node's contributions gather at its leader
//	inter-node allreduce → leaders combine over the fabric (any schedule)
//	intra-node broadcast → the result fans back out inside each node
//
// Both pinned engine invariants extend to the composition:
//
//  1. Composed-oracle equality. On contention-free topologies the
//     hierarchical collectives complete at exactly
//     intra-reduce + inter-allreduce + intra-broadcast of the closed-form
//     α-β formulas (HierAllReduceTime), for every round-synchronized
//     (intra, inter) schedule pair.
//  2. Ordered reduction. The intra phase gathers rank-tagged contribution
//     lists (tagged with *global* ranks) instead of partial sums, the
//     inter phase carries whole lists through any schedule
//     (allReduceListSeg), and the final combine runs in ascending global
//     rank order — so the allreduce is bit-identical to ReduceSum over all
//     parties in rank order, for EVERY (intra, inter) schedule pair,
//     including the Range/bucketed variants the streaming pipeline uses.
//     Wire cost still charges one partial-sum-sized payload per message,
//     exactly like the real algorithm the timing models.
//
// The buffer-reuse contract composes too: the allreduce and the broadcast
// borrow end to end (a non-leader is held in the intra-node broadcast until
// its leader returns from the fabric, by which time every sum that reads its
// buffer is done); only the rooted reduction copies.

// HierConfig configures a HierCommunicator.
type HierConfig struct {
	// Groups lists each node's party topology ids in local-rank order;
	// global rank is position in the concatenation (MultiLevel.Groups
	// builds this for a homogeneous cluster).
	Groups [][]int
	// Leader is the local rank of each group's fabric endpoint (default 0).
	Leader int
	// Leaders, when non-nil, overrides Leader with a per-group local rank —
	// the survivor rebuild uses it to keep each original leader in place
	// even as deaths shift local indices.
	Leaders []int
	// GroupTags, when non-nil, overrides the sequential global-rank
	// contribution tags with explicit per-group tags (same shape as
	// Groups). The survivor rebuild tags live members with their original
	// global ranks, preserving the ascending-global-rank combine order.
	GroupTags [][]int
	// Plan is the shared message plan (same semantics as CommConfig.Plan).
	Plan Plan
	// Intra and Inter select the schedules of the two levels: Intra shapes
	// the node-local reduce/broadcast (ring and RHD, allreduce shapes, fall
	// back to the tree there, as in the flat engine), Inter the leader
	// allreduce over the fabric.
	Intra, Inter Schedule
	// ChunkElems is the chain schedules' pipeline granularity.
	ChunkElems int
	// Wire is the per-message wire-size model (nil = raw fp32).
	Wire WireFunc
	// Tag namespaces the composed communicators' messages; the hier
	// communicator uses Tag+1 (intra) and Tag+2 (inter), leaving Tag+0 for
	// a flat communicator sharing the topology. Default 0.
	Tag int
}

// HierCommunicator runs two-level collectives among nodes×group parties.
// Round-number semantics match Communicator: every party issues the same
// sequence with matching rounds, and distinct concurrent collectives
// (e.g. overlapped buckets) use distinct rounds.
type HierCommunicator struct {
	topo     *Topology
	cfg      HierConfig
	leaderOf []int // group index -> leader's local rank
	intra    []*Communicator
	inter    *Communicator
	groupOf  []int // global rank -> group index
	localOf  []int // global rank -> local rank within the group
	rankOf   [][]int
	// Survivor state (MarkDead): sub is a fresh two-level communicator over
	// the live membership, rebuilt from the original config at each death
	// (so sub itself never has a sub); liveOf remaps global ranks into it.
	dead   map[int]bool
	sub    engine
	liveOf []int
	// free recycles the contribution copies of the rooted reduction, the one
	// hierarchical collective that cannot borrow (see reduceSeg).
	free bufPool
}

// NewHierCommunicator composes intra-node communicators (one per group,
// contributions tagged with global ranks) and an inter-node communicator
// over the group leaders.
func NewHierCommunicator(t *Topology, cfg HierConfig) *HierCommunicator {
	if len(cfg.Groups) < 1 {
		panic("comm: hierarchical communicator needs at least one group")
	}
	if cfg.Leaders != nil && len(cfg.Leaders) != len(cfg.Groups) {
		panic(fmt.Sprintf("comm: %d leaders for %d groups", len(cfg.Leaders), len(cfg.Groups)))
	}
	if cfg.GroupTags != nil && len(cfg.GroupTags) != len(cfg.Groups) {
		panic(fmt.Sprintf("comm: %d tag groups for %d groups", len(cfg.GroupTags), len(cfg.Groups)))
	}
	hc := &HierCommunicator{topo: t, cfg: cfg}
	var leaders, leaderTags []int
	next := 0
	for g, group := range cfg.Groups {
		if len(group) < 1 {
			panic(fmt.Sprintf("comm: group %d is empty", g))
		}
		lead := cfg.Leader
		if cfg.Leaders != nil {
			lead = cfg.Leaders[g]
		}
		if lead < 0 || lead >= len(group) {
			panic(fmt.Sprintf("comm: leader rank %d outside group %d of %d", lead, g, len(group)))
		}
		hc.leaderOf = append(hc.leaderOf, lead)
		tags := make([]int, len(group))
		ranks := make([]int, len(group))
		for l := range group {
			tags[l] = next
			if cfg.GroupTags != nil {
				tags[l] = cfg.GroupTags[g][l]
			}
			ranks[l] = next
			hc.groupOf = append(hc.groupOf, g)
			hc.localOf = append(hc.localOf, l)
			next++
		}
		hc.rankOf = append(hc.rankOf, ranks)
		hc.intra = append(hc.intra, NewCommunicator(t, CommConfig{
			Parties:    group,
			Plan:       cfg.Plan,
			Schedule:   cfg.Intra,
			ChunkElems: cfg.ChunkElems,
			Wire:       cfg.Wire,
			Tag:        cfg.Tag + 1,
			RankTags:   tags,
		}))
		leaders = append(leaders, group[lead])
		leaderTags = append(leaderTags, tags[lead])
	}
	hc.inter = NewCommunicator(t, CommConfig{
		Parties:    leaders,
		Plan:       cfg.Plan,
		Schedule:   cfg.Inter,
		ChunkElems: cfg.ChunkElems,
		Wire:       cfg.Wire,
		Tag:        cfg.Tag + 2,
		RankTags:   leaderTags,
	})
	return hc
}

// Live returns the number of surviving parties.
func (hc *HierCommunicator) Live() int { return hc.Size() - len(hc.dead) }

// MarkDead declares global rank fail-stopped: the topology drops traffic
// to its node and a fresh two-level communicator is rebuilt over the live
// membership — live members keep their original local order and global-
// rank contribution tags, groups emptied by death drop out, and each
// group's original leader stays leader while it lives (its group falls
// back to its first survivor). Subsequent collectives delegate into the
// rebuild, so both levels' schedules re-form over the survivors. As with
// the flat engine, every surviving party calls MarkDead (idempotent)
// between rounds; root death is unsupported.
func (hc *HierCommunicator) MarkDead(rank int) {
	if rank < 0 || rank >= hc.Size() {
		panic(fmt.Sprintf("comm: MarkDead rank %d of %d parties", rank, hc.Size()))
	}
	if hc.dead == nil {
		hc.dead = map[int]bool{}
	}
	if hc.dead[rank] {
		return
	}
	hc.dead[rank] = true
	hc.topo.MarkDead(hc.cfg.Groups[hc.groupOf[rank]][hc.localOf[rank]])
	if hc.Live() < 1 {
		panic("comm: every party of the hierarchical communicator is dead")
	}
	var groups, groupTags [][]int
	var leaders []int
	liveOf := make([]int, hc.Size())
	next := 0
	for g, group := range hc.cfg.Groups {
		var members, tags []int
		lead := -1
		for l, node := range group {
			r := hc.rankOf[g][l]
			if hc.dead[r] {
				liveOf[r] = -1
				continue
			}
			if l == hc.leaderOf[g] {
				lead = len(members)
			}
			liveOf[r] = next + len(members)
			members = append(members, node)
			tags = append(tags, hc.intra[g].tagOf(l))
		}
		if len(members) == 0 {
			continue
		}
		if lead < 0 {
			lead = 0
		}
		next += len(members)
		groups = append(groups, members)
		groupTags = append(groupTags, tags)
		leaders = append(leaders, lead)
	}
	hc.liveOf = liveOf
	hc.sub = NewHierCommunicator(hc.topo, HierConfig{
		Groups:     groups,
		Leaders:    leaders,
		GroupTags:  groupTags,
		Plan:       hc.cfg.Plan,
		Intra:      hc.cfg.Intra,
		Inter:      hc.cfg.Inter,
		ChunkElems: hc.cfg.ChunkElems,
		Wire:       hc.cfg.Wire,
		Tag:        hc.cfg.Tag, // rounds only move forward, so reuse is collision-free
	})
}

// Size returns the total party count over all groups.
func (hc *HierCommunicator) Size() int { return len(hc.groupOf) }

// Intra returns group g's node-local communicator — the building block the
// hierarchical EASGD algorithms drive directly for group-center syncs.
func (hc *HierCommunicator) Intra(g int) *Communicator { return hc.intra[g] }

// Inter returns the leader communicator over the fabric.
func (hc *HierCommunicator) Inter() *Communicator { return hc.inter }

// GroupOf returns the group index of a global rank.
func (hc *HierCommunicator) GroupOf(rank int) int { return hc.groupOf[rank] }

// LocalOf returns the local (within-group) rank of a global rank.
func (hc *HierCommunicator) LocalOf(rank int) int { return hc.localOf[rank] }

// IsLeader reports whether the global rank is its group's fabric leader.
func (hc *HierCommunicator) IsLeader(rank int) bool {
	return hc.localOf[rank] == hc.leaderOf[hc.groupOf[rank]]
}

// LeaderRank returns the global rank of group g's leader.
func (hc *HierCommunicator) LeaderRank(g int) int { return hc.rankOf[g][hc.leaderOf[g]] }

// BytesMoved reports the underlying topology's cumulative wire bytes.
func (hc *HierCommunicator) BytesMoved() int64 { return hc.inter.topo.BytesMoved() }

// Endpoint returns global rank's handle — the same Endpoint a flat
// communicator hands out, with this two-level composition as its engine.
func (hc *HierCommunicator) Endpoint(rank int) *Endpoint { return newEndpoint(hc, rank) }

func (hc *HierCommunicator) msgPlan() Plan { return hc.cfg.Plan }

func (hc *HierCommunicator) survivors() (engine, []int) { return hc.sub, hc.liveOf }

// tagOf is a global rank's contribution tag: its intra communicator's.
func (hc *HierCommunicator) tagOf(rank int) int {
	return hc.intra[hc.groupOf[rank]].tagOf(hc.localOf[rank])
}

// phHand is the extra phase of the hierarchical root hand-off hops (a
// non-leader root passing its payload to — or receiving the gathered list
// from — its group's leader).
const phHand = 2

// ---- per-segment composition (the hierarchical engine behind an Endpoint) ----

// allReduceSeg runs one segment's two-level allreduce: intra gather to the
// leader, inter allreduce of the gathered lists among leaders, intra
// broadcast of the combined range.
func (hc *HierCommunicator) allReduceSeg(p *sim.Proc, rank, round, si int, buf []float32, seg [2]int) {
	g, local := hc.groupOf[rank], hc.localOf[rank]
	lead := hc.leaderOf[g]
	ic := hc.intra[g]
	self := ic.selfContrib(local, buf, seg)
	list := ic.gatherSeg(p, local, round, phReduce, si, lead, self, seg, nil)
	if local == lead {
		hc.inter.allReduceListSeg(p, g, round, si, list, buf, seg)
	}
	ic.bcastSeg(p, local, round, si, lead, buf, seg)
}

// bcastSeg runs one segment's two-level broadcast: a non-leader root hands
// the segment to its group's leader (free when the root is a leader), leaders
// broadcast over the fabric, and every group fans out locally.
func (hc *HierCommunicator) bcastSeg(p *sim.Proc, rank, round, si, root int, buf []float32, seg [2]int) {
	g, local := hc.groupOf[rank], hc.localOf[rank]
	lead := hc.leaderOf[g]
	rg := hc.groupOf[root]
	ic := hc.intra[g]
	elems := seg[1] - seg[0]
	// Hand-off: a non-leader root passes the segment to its group's leader —
	// borrowed: the root then waits in the local fan-out below, which its
	// leader feeds only after copying the hand-off out.
	if !hc.IsLeader(root) {
		key := collKey{round, phHand, si, 0, 0}
		switch rank {
		case root:
			var data []float32
			if buf != nil {
				data = buf[seg[0]:seg[1]]
			}
			ic.send(p, local, lead, collMsg{key: key, data: data}, ic.wireOf(elems))
		case hc.LeaderRank(rg):
			m := ic.recv(p, local, hc.localOf[root], key)
			if buf != nil {
				copy(buf[seg[0]:seg[1]], m.data)
			}
		}
	}
	// Leaders broadcast over the fabric from the root's group.
	if local == lead {
		hc.inter.bcastSeg(p, g, round, si, rg, buf, seg)
	}
	// Every group fans out locally from its leader.
	ic.bcastSeg(p, local, round, si, lead, buf, seg)
}

// reduceSeg runs one segment's two-level reduction: intra gathers to the
// leaders, leaders gather over the fabric to the root's leader, which hands
// the assembled list to a non-leader root.
//
// Contributions travel as copies here: a non-leader returns at the end of
// its intra-node gather, long before the fabric gather and the hand-off
// deliver the list to root, and no barrier spans the levels (adding one
// would move the simulated time). Root recycles the copies after the sum.
func (hc *HierCommunicator) reduceSeg(p *sim.Proc, rank, round, si, root int, buf []float32, seg [2]int) {
	g, local := hc.groupOf[rank], hc.localOf[rank]
	lead := hc.leaderOf[g]
	rg := hc.groupOf[root]
	ic := hc.intra[g]
	self := ic.selfContrib(local, buf, seg)
	for i := range self {
		self[i].vals = hc.free.snapshot(self[i].vals)
	}
	list := ic.gatherSeg(p, local, round, phReduce, si, lead, self, seg, nil)
	if local == lead {
		list = hc.inter.gatherSeg(p, g, round, phReduce, si, rg, list, seg, nil)
	}
	// Hand-off: the root group's leader passes the assembled list to a
	// non-leader root (one segment-sized wire message, like the real
	// partial-sum hop it models).
	if !hc.IsLeader(root) {
		key := collKey{round, phHand, si, 1, 0} // step 1: distinct from the broadcast hand-off
		switch rank {
		case hc.LeaderRank(rg):
			ic.send(p, local, hc.localOf[root], collMsg{key: key, contribs: list}, ic.wireOf(seg[1]-seg[0]))
		case root:
			list = ic.recv(p, local, lead, key).contribs
		}
	}
	if rank == root && buf != nil {
		ic.orderedSum(buf[seg[0]:seg[1]], list)
		for _, cb := range list {
			hc.free.release(cb.vals)
		}
	}
}
