package comm

import (
	"fmt"
	"math"

	"scaledl/internal/parse"
	"scaledl/internal/sim"
	"scaledl/internal/tensor"
)

// This file is the message-level collective engine: Broadcast, Reduce and
// AllReduce executed as actual simulated message exchanges between party
// processes over a Topology, under a selectable schedule. Where the
// closed-form functions in comm.go *predict* a collective's cost, the
// engine *performs* it — every hop pays its path's α-β (and queues on
// shared segments), real float32 segments move, and per-message wire sizes
// flow through an optional WireFunc so gradient compression is charged
// where the bytes travel.
//
// Two invariants tie the engine to the rest of the repo:
//
//  1. Analytic-oracle equality. Tree, linear, ring and
//     recursive-halving/doubling collectives synchronize their message
//     rounds (a free sim.Barrier per round — the bulk-synchronous
//     assumption the α-β formulas make), so on a contention-free topology
//     the simulated completion time equals TreeReduceTime /
//     LinearReduceTime / RingAllReduceTime / RHDAllReduceTime exactly.
//     The pipelined chain schedule is deliberately eager (no round
//     barriers): its chunks overlap down the chain, which is the
//     optimization the barriers would destroy.
//  2. Ordered reduction. Messages carry the constituent contributions
//     (rank-tagged segments) rather than eagerly-combined partial sums,
//     and the final combine always runs in ascending party-rank order —
//     so reduced values are bit-identical to comm.ReduceSum over the
//     inputs in rank order, for every schedule, which keeps training
//     results independent of the schedule choice. Wire cost still charges
//     one partial-sum-sized payload per message, exactly like the real
//     algorithm the timing models.
//
// And one contract ties it to its callers — buffer reuse, with MPI's
// semantics: a payload is a borrowed view of the caller's buffer, and when a
// collective returns on a rank no other rank holds a reference into that
// rank's buffer. Contribution lists and broadcast sends alias buf[lo:hi];
// nothing is copied on the way. What makes that safe is ordering, not
// ownership: a lender stays blocked inside its own call until every reader
// of its bytes is done. In an allreduce the lender waits in the broadcast
// phase of the same call for a result that exists only after the sum; every
// tree, ring, RHD and linear round ends in a barrier the receiver reaches
// only after copying out; a rooted Reduce has its root combine before the
// root's final arrival at the gather's last barrier, which is what releases
// the lenders; the combining party — whose own contribution is its
// destination — sums into one communicator-owned scratch (exactly one
// simulated process runs at a time and the sum never yields). Where nothing
// orders a lender behind its readers the engine copies instead, and says so
// at the site: the eager chain schedule has no barrier between a send and
// the sender's return, so it copies each chunk it sends into buffers
// recycled through the communicator's free list; the hierarchical rooted
// reduction (hier.go) and factor payloads (sfb.go) are the other two.
// TestBufferReuseContract runs every form on every engine, fault-free and
// under message loss.

// Schedule selects the message pattern of a collective.
type Schedule int

const (
	// ScheduleTree is the binomial tree — the paper's Θ(log P) choice.
	ScheduleTree Schedule = iota
	// ScheduleRing is the bandwidth-optimal ring allreduce
	// (reduce-scatter + allgather of P chunks).
	ScheduleRing
	// ScheduleRHD is recursive halving/doubling (power-of-two parties;
	// other counts fall back to the tree, as MPI implementations do).
	ScheduleRHD
	// ScheduleChain is a chunked, pipelined chain: chunks stream down a
	// line of parties with no round synchronization, overlapping hops.
	ScheduleChain
	// ScheduleLinear is the Θ(P) one-party-at-a-time exchange of the
	// original round-robin EASGD — the baseline the paper replaces.
	ScheduleLinear
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case ScheduleTree:
		return "tree"
	case ScheduleRing:
		return "ring"
	case ScheduleRHD:
		return "rhd"
	case ScheduleChain:
		return "chain"
	case ScheduleLinear:
		return "linear"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Schedules lists every schedule name accepted by ParseSchedule.
func Schedules() []string { return []string{"tree", "ring", "rhd", "chain", "linear"} }

// AnalyticAllReduceTime returns the closed-form α-β prediction for the
// schedule's allreduce of n bytes over p parties, and whether one exists.
// It is the single source of the schedule→oracle mapping; the pipelined
// chain returns false — its chunk overlap is exactly what the formulas
// cannot express.
func (s Schedule) AnalyticAllReduceTime(l Transferer, n int64, p int) (float64, bool) {
	switch s {
	case ScheduleTree:
		return TreeAllReduceTime(l, n, p), true
	case ScheduleRing:
		return RingAllReduceTime(l, n, p), true
	case ScheduleRHD:
		return RHDAllReduceTime(l, n, p), true
	case ScheduleLinear:
		return LinearReduceTime(l, n, p) + LinearBroadcastTime(l, n, p), true
	default:
		return 0, false
	}
}

// AnalyticReduceTime returns the closed-form α-β prediction of the
// schedule's *reduce shape* over p parties — the pattern reduceSeg (and the
// hierarchical intra-node gather) actually walks: ring and RHD, which are
// allreduce shapes, fall back to the binomial tree exactly as the engine
// does; the pipelined chain returns false.
func (s Schedule) AnalyticReduceTime(l Transferer, n int64, p int) (float64, bool) {
	switch s {
	case ScheduleLinear:
		return LinearReduceTime(l, n, p), true
	case ScheduleChain:
		return 0, false
	default:
		return TreeReduceTime(l, n, p), true
	}
}

// AnalyticBroadcastTime mirrors AnalyticReduceTime for the broadcast shape.
func (s Schedule) AnalyticBroadcastTime(l Transferer, n int64, p int) (float64, bool) {
	switch s {
	case ScheduleLinear:
		return LinearBroadcastTime(l, n, p), true
	case ScheduleChain:
		return 0, false
	default:
		return TreeBroadcastTime(l, n, p), true
	}
}

// ParseSchedule converts a name ("tree", "ring", "rhd", "chain", "linear")
// to a Schedule; the empty string means tree.
func ParseSchedule(name string) (Schedule, error) {
	switch name {
	case "", "tree":
		return ScheduleTree, nil
	case "ring":
		return ScheduleRing, nil
	case "rhd":
		return ScheduleRHD, nil
	case "chain":
		return ScheduleChain, nil
	case "linear":
		return ScheduleLinear, nil
	default:
		return 0, parse.Errorf("collective schedule", name, Schedules())
	}
}

// Ranks returns the identity party list [0, 1, …, n−1] — the common case
// of a communicator spanning a topology's first n nodes in node order.
func Ranks(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// WireFunc maps a message's float32 element count to its wire size in
// bytes. nil means raw fp32 (4 bytes per element); quant.WireBytes curried
// over a Scheme charges compressed traffic.
type WireFunc func(elems int) int64

// CommConfig configures a Communicator.
type CommConfig struct {
	// Parties lists the topology node ids participating, in rank order.
	Parties []int
	// Plan is the message plan: packed single-segment or per-layer, with
	// the gather staging penalty for unpacked layouts.
	Plan Plan
	// Schedule selects the allreduce message pattern (default tree).
	Schedule Schedule
	// ChunkElems is the chain schedule's pipeline granularity in elements
	// (default 8192 ≈ 32 KB of fp32).
	ChunkElems int
	// Wire is the per-message wire-size model (nil = raw fp32).
	Wire WireFunc
	// Tag namespaces this communicator's messages on the topology.
	// Communicators whose parties share topology nodes (the hierarchical
	// composition: a leader belongs to its node's intra communicator AND
	// the inter-node one) must use distinct tags so selective receive can
	// keep their message streams apart. Default 0.
	Tag int
	// RankTags, when non-nil, relabels the rank carried inside reduce
	// contributions (one tag per party, ascending). The hierarchical
	// collectives tag intra-node contributions with *global* ranks so the
	// final combine — which merges whole node groups — still runs in
	// ascending global-rank order, bit-identical to a flat ReduceSum.
	// nil means the identity (party rank), the flat communicator's order.
	RankTags []int
}

// Communicator runs collectives among a fixed set of parties over a
// Topology. Collective calls are identified by a caller-chosen round
// number; every party must issue the same sequence of collectives with
// matching rounds (MPI semantics). Distinct rounds may be in flight
// concurrently (e.g. an overlapped broadcast forked beside a reduction).
type Communicator struct {
	topo    *Topology
	parties []int
	plan    Plan
	sched   Schedule
	chunk   int
	wire    WireFunc
	tag     int
	tags    []int
	bars    map[collKey]*sim.Barrier
	msgPool []*collMsg
	sumBuf  []float32 // orderedSum's accumulator
	free    bufPool   // recycled chunk copies of the eager chain schedule
	// Survivor state (MarkDead). sub, once a party dies, is a fresh
	// communicator over the live membership; every collective delegates to
	// it with ranks remapped through liveOf, so schedules re-form over the
	// survivors instead of deadlocking on the dead rank.
	dead   map[int]bool
	sub    engine
	liveOf []int // original rank -> sub rank, -1 for dead
}

// NewCommunicator creates a communicator. The plan's byte counts must be
// multiples of 4 (float32 payloads).
func NewCommunicator(t *Topology, cfg CommConfig) *Communicator {
	if len(cfg.Parties) < 1 {
		panic("comm: communicator needs at least one party")
	}
	for _, id := range cfg.Parties {
		t.checkNode(id)
	}
	for _, b := range cfg.Plan.LayerBytes {
		if b%4 != 0 {
			panic(fmt.Sprintf("comm: plan segment of %d bytes is not whole float32s", b))
		}
	}
	chunk := cfg.ChunkElems
	if chunk <= 0 {
		chunk = 8192
	}
	if cfg.RankTags != nil && len(cfg.RankTags) != len(cfg.Parties) {
		panic(fmt.Sprintf("comm: %d rank tags for %d parties", len(cfg.RankTags), len(cfg.Parties)))
	}
	return &Communicator{
		topo:    t,
		parties: append([]int(nil), cfg.Parties...),
		plan:    cfg.Plan,
		sched:   cfg.Schedule,
		chunk:   chunk,
		wire:    cfg.Wire,
		tag:     cfg.Tag,
		tags:    append([]int(nil), cfg.RankTags...),
		bars:    map[collKey]*sim.Barrier{},
	}
}

// tagOf returns the contribution tag of party rank (RankTags or identity).
func (c *Communicator) tagOf(rank int) int {
	if c.tags != nil {
		return c.tags[rank]
	}
	return rank
}

// Size returns the number of parties the communicator was built over,
// including any that have since died; see Live.
func (c *Communicator) Size() int { return len(c.parties) }

// Live returns the number of surviving parties.
func (c *Communicator) Live() int { return len(c.parties) - len(c.dead) }

// MarkDead declares party rank fail-stopped. The topology drops traffic to
// its node (cancelling in-flight transfers), and every subsequent
// collective runs over a fresh communicator spanning only the survivors —
// tree, ring, RHD, chain and linear schedules all re-form over the live
// membership, reduce contribution lists shrink to the survivors (results
// are bit-identical to a fresh communicator built over the live parties
// with their original rank tags), and collectives complete with P−1
// parties instead of deadlocking. Callers must quiesce the dead rank's
// in-progress collectives first: every party calls MarkDead between
// collective rounds (it is idempotent), and from the next round on the
// survivor schedule is in effect. Root death is unsupported.
func (c *Communicator) MarkDead(rank int) {
	if rank < 0 || rank >= len(c.parties) {
		panic(fmt.Sprintf("comm: MarkDead rank %d of %d parties", rank, len(c.parties)))
	}
	if c.dead == nil {
		c.dead = map[int]bool{}
	}
	if c.dead[rank] {
		return
	}
	c.dead[rank] = true
	c.topo.MarkDead(c.parties[rank])
	if c.sub != nil {
		c.sub.MarkDead(c.liveOf[rank])
		return
	}
	if c.Live() < 1 {
		panic("comm: every party of the communicator is dead")
	}
	live := make([]int, 0, c.Live())
	liveTags := make([]int, 0, c.Live())
	liveOf := make([]int, len(c.parties))
	for r := range c.parties {
		if c.dead[r] {
			liveOf[r] = -1
			continue
		}
		liveOf[r] = len(live)
		live = append(live, c.parties[r])
		liveTags = append(liveTags, c.tagOf(r))
	}
	c.liveOf = liveOf
	c.sub = NewCommunicator(c.topo, CommConfig{
		Parties:    live,
		Plan:       c.plan,
		Schedule:   c.sched,
		ChunkElems: c.chunk,
		Wire:       c.wire,
		Tag:        c.tag, // rounds only move forward, so reuse is collision-free
		RankTags:   liveTags,
	})
}

// BytesMoved reports the underlying topology's cumulative wire bytes.
func (c *Communicator) BytesMoved() int64 { return c.topo.BytesMoved() }

// Endpoint returns party rank's handle; collective methods are issued
// through it from the party's own simulated process.
func (c *Communicator) Endpoint(rank int) *Endpoint { return newEndpoint(c, rank) }

func (c *Communicator) msgPlan() Plan { return c.plan }

func (c *Communicator) survivors() (engine, []int) { return c.sub, c.liveOf }

// phases keep concurrent collectives of the same round apart.
const (
	phReduce = iota
	phBcast
)

// collKey identifies one message (or round barrier) of one collective.
type collKey struct {
	round, phase, seg, step, chunk int
}

// contrib is one party's (possibly quantizer-reconstructed) values for the
// element range a reduce message covers, tagged with its origin rank so
// the final combine can run in ascending rank order.
type contrib struct {
	rank int
	vals []float32
}

// collMsg is the engine's wire format.
type collMsg struct {
	src      int
	key      collKey
	lo       int       // element offset of data within the segment (RHD allgather)
	data     []float32 // broadcast / allgather payload (nil in size-only mode)
	contribs []contrib // reduce payload, ascending rank order
	factors  []Factors // sufficient-factor payload (sfb.go; nil elsewhere)
	// Checksum state (chaos mode only; see the Sealed interface). sum is
	// the sealed content hash; verdict memoizes Verify (0 unset, 1 ok,
	// -1 bad); poison marks a payload with no flippable bits whose frame
	// itself is corrupt.
	sum     uint64
	sealed  bool
	poison  bool
	verdict int8
}

// hash folds the message's semantic content — key, offset, data bits,
// contribution ranks and bits — through FNV-1a.
func (m *collMsg) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(m.key.round))
	mix(uint64(m.key.phase))
	mix(uint64(m.key.seg))
	mix(uint64(m.key.step))
	mix(uint64(m.key.chunk))
	mix(uint64(m.lo))
	for _, v := range m.data {
		mix(uint64(math.Float32bits(v)))
	}
	for _, cb := range m.contribs {
		mix(uint64(cb.rank))
		for _, v := range cb.vals {
			mix(uint64(math.Float32bits(v)))
		}
	}
	for _, f := range m.factors {
		mix(uint64(f.Rank))
		mix(uint64(f.B))
		for _, v := range f.DY {
			mix(uint64(math.Float32bits(v)))
		}
		for _, v := range f.X {
			mix(uint64(math.Float32bits(v)))
		}
	}
	return h
}

// Seal implements Sealed: it stamps the end-to-end checksum the receiver
// verifies. Called by the chaos layer at first send; never on the
// fault-free path.
func (m *collMsg) Seal() {
	m.sum = m.hash()
	m.sealed = true
	m.verdict = 0
}

// Verify implements Sealed, memoized — a rejected payload may be probed by
// several blocked receivers before the purge sweeps it.
func (m *collMsg) Verify() bool {
	if m.poison {
		return false
	}
	if !m.sealed {
		return true
	}
	if m.verdict == 0 {
		if m.hash() == m.sum {
			m.verdict = 1
		} else {
			m.verdict = -1
		}
	}
	return m.verdict == 1
}

// Garble implements Sealed: a corrupted deep copy carrying the stale
// checksum. The flipped slice is fresh so the sender's pristine buffer
// survives for the resend; payloads with no data bits (size-only mode)
// are poisoned instead — the frame CRC catches those.
func (m *collMsg) Garble() any {
	g := &collMsg{src: m.src, key: m.key, lo: m.lo, sum: m.sum, sealed: m.sealed}
	flip := func(v float32) float32 {
		return math.Float32frombits(math.Float32bits(v) ^ 1)
	}
	switch {
	case len(m.data) > 0:
		g.data = append([]float32(nil), m.data...)
		g.data[0] = flip(g.data[0])
	case len(m.contribs) > 0:
		g.contribs = append([]contrib(nil), m.contribs...)
		for i := range g.contribs {
			if vals := g.contribs[i].vals; len(vals) > 0 {
				vals = append([]float32(nil), vals...)
				vals[0] = flip(vals[0])
				g.contribs[i].vals = vals
				return g
			}
		}
		g.poison = true
	case len(m.factors) > 0:
		g.factors = append([]Factors(nil), m.factors...)
		for i := range g.factors {
			if vals := g.factors[i].DY; len(vals) > 0 {
				vals = append([]float32(nil), vals...)
				vals[0] = flip(vals[0])
				g.factors[i].DY = vals
				return g
			}
		}
		g.poison = true
	default:
		g.poison = true
	}
	return g
}

func (c *Communicator) wireOf(elems int) int64 {
	if c.wire != nil {
		return c.wire(elems)
	}
	return int64(elems) * 4
}

// planSegments appends a plan's message-segment element ranges to segs: one
// packed whole-model range, or one range per layer.
func planSegments(segs [][2]int, plan Plan) [][2]int {
	if plan.Packed || len(plan.LayerBytes) <= 1 {
		return append(segs, [2]int{0, int(plan.TotalBytes() / 4)})
	}
	lo := 0
	for _, b := range plan.LayerBytes {
		hi := lo + int(b/4)
		segs = append(segs, [2]int{lo, hi})
		lo = hi
	}
	return segs
}

// send transmits m from party rank `from` to `to`, charging wireBytes. The
// wire format travels as a pooled *collMsg so the per-message payload box
// is recycled instead of allocated (see Topology.msgPool for the same
// treatment of the envelope).
func (c *Communicator) send(p *sim.Proc, from, to int, m collMsg, wireBytes int64) {
	m.src = from
	cm := c.getMsg()
	*cm = m
	c.topo.Send(p, c.parties[from], c.parties[to], c.tag, cm, wireBytes)
}

// recv blocks until the message with the given key arrives from party
// rank `from` on this communicator's tag.
func (c *Communicator) recv(p *sim.Proc, at, from int, key collKey) collMsg {
	raw := c.topo.RecvMatch(p, c.parties[at], func(msg Message) bool {
		cm, ok := msg.Payload.(*collMsg)
		return ok && msg.Tag == c.tag && cm.src == from && cm.key == key
	})
	pm := raw.Payload.(*collMsg)
	m := *pm
	c.putMsg(pm)
	return m
}

// getMsg takes a collMsg box from the communicator's free list.
func (c *Communicator) getMsg() *collMsg {
	if n := len(c.msgPool); n > 0 {
		m := c.msgPool[n-1]
		c.msgPool = c.msgPool[:n-1]
		return m
	}
	return new(collMsg)
}

// putMsg returns a consumed box; the contribution and data slices it
// referenced live on with the receiver, only the box is recycled.
func (c *Communicator) putMsg(m *collMsg) {
	*m = collMsg{}
	c.msgPool = append(c.msgPool, m)
}

// sync joins the round barrier identified by key; all parties pass it at
// the same simulated instant (the bulk-synchronous round boundary of the
// α-β model). Barriers are created lazily and deleted after use.
func (c *Communicator) sync(p *sim.Proc, key collKey) {
	b, ok := c.bars[key]
	if !ok {
		b = sim.NewBarrier(c.topo.env, "coll-round", len(c.parties))
		c.bars[key] = b
	}
	p.Wait(b)
	delete(c.bars, key)
}

// syncRounds arrives at the per-round barriers [from, to) of one phase in a
// single batch, blocking until round to-1 releases. The tree schedules use
// it for a party's idle run — the rounds after a gather leaf has sent, or
// before a broadcast target receives — where repeated sync() calls would
// wake the party once per round just to re-arrive. One phase shares one
// generation barrier (step -1 keys it apart from per-step barriers); the
// party that observes the final round released deletes it.
func (c *Communicator) syncRounds(p *sim.Proc, key collKey, from, to, total int) {
	if from >= to {
		return
	}
	key.step = -1
	b, ok := c.bars[key]
	if !ok {
		b = sim.NewBarrier(c.topo.env, "coll-phase", len(c.parties))
		c.bars[key] = b
	}
	p.WaitMany(b, to-from)
	if b.Gen() >= total {
		delete(c.bars, key)
	}
}

// vrOf rotates rank so that root acts as virtual rank 0.
func (c *Communicator) vrOf(rank, root int) int {
	p := len(c.parties)
	return (rank - root + p) % p
}

// realOf inverts vrOf.
func (c *Communicator) realOf(vr, root int) int {
	p := len(c.parties)
	return (vr + root) % p
}

// bufPool is a free list of float32 buffers for the few payloads that cannot
// be borrowed and must be copied (see the buffer-reuse contract above).
type bufPool [][]float32

// snapshot copies v into a recycled buffer, allocating only when none on the
// list is large enough.
func (bp *bufPool) snapshot(v []float32) []float32 {
	l := *bp
	for i := len(l) - 1; i >= 0; i-- {
		if b := l[i]; cap(b) >= len(v) {
			l[i] = l[len(l)-1]
			*bp = l[:len(l)-1]
			b = b[:len(v)]
			copy(b, v)
			return b
		}
	}
	return append([]float32(nil), v...)
}

// release returns a snapshot to the list once its last reader is done.
func (bp *bufPool) release(b []float32) { *bp = append(*bp, b) }

// selfContrib builds a party's initial contribution list for one segment: a
// tagged view of its buffer (borrowed, not copied), or nil in size-only mode.
func (c *Communicator) selfContrib(rank int, buf []float32, seg [2]int) []contrib {
	if buf == nil {
		return nil
	}
	return []contrib{{rank: c.tagOf(rank), vals: buf[seg[0]:seg[1]]}}
}

// clipContribs appends to dst every contribution of a [seg]-covering list
// restricted to the subrange ch (no copying: the clipped values alias the
// originals). A nil list appends nothing, so size-only lists stay nil.
func clipContribs(dst, list []contrib, seg, ch [2]int) []contrib {
	for _, cb := range list {
		dst = append(dst, contrib{rank: cb.rank, vals: cb.vals[ch[0]-seg[0] : ch[1]-seg[0]]})
	}
	return dst
}

// mergeContribs merges two rank-sorted contribution lists.
func mergeContribs(a, b []contrib) []contrib {
	out := make([]contrib, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].rank < b[j].rank {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// orderedSum overwrites dst with the rank-ordered sum of the contributions
// — the exact association order of ReduceSum over rank-ascending inputs.
// dst is the combining party's own buffer, which one of the contributions
// aliases, so the sum accumulates from zero in the communicator's scratch and
// is copied out (starting from dst's own values instead would turn an
// all-(−0) element into −0 where ReduceSum's 0 + (−0) gives +0).
func (c *Communicator) orderedSum(dst []float32, list []contrib) {
	if cap(c.sumBuf) < len(dst) {
		c.sumBuf = make([]float32, len(dst))
	}
	acc := c.sumBuf[:len(dst)]
	clear(acc)
	for _, cb := range list {
		tensor.AXPY(1, cb.vals, acc)
	}
	copy(dst, acc)
}

// ---- per-segment dispatch (the flat engine behind an Endpoint) ----

// bcastSeg runs one segment's broadcast under the schedule (ring and RHD,
// which are allreduce shapes, fall back to the tree).
func (c *Communicator) bcastSeg(p *sim.Proc, rank, round, si, root int, buf []float32, seg [2]int) {
	switch c.sched {
	case ScheduleLinear:
		c.linearBcast(p, rank, round, phBcast, si, root, buf, seg)
	case ScheduleChain:
		c.chainBcast(p, rank, round, phBcast, si, root, buf, seg)
	default:
		c.treeBcast(p, rank, round, phBcast, si, root, buf, seg)
	}
}

// reduceSeg runs one segment's reduction toward root under the schedule.
func (c *Communicator) reduceSeg(p *sim.Proc, rank, round, si, root int, buf []float32, seg [2]int) {
	c.reduceListSeg(p, rank, round, si, root, c.selfContrib(rank, buf, seg), buf, seg)
}

// reduceListSeg gathers the parties' contribution lists toward root, whose
// buf range ends holding their rank-ordered sum.
func (c *Communicator) reduceListSeg(p *sim.Proc, rank, round, si, root int, self []contrib, buf []float32, seg [2]int) {
	var dst []float32
	if rank == root && buf != nil {
		dst = buf[seg[0]:seg[1]]
	}
	c.gatherSeg(p, rank, round, phReduce, si, root, self, seg, dst)
}

// gatherSeg runs one segment's reduction-shaped gather toward root under the
// schedule (ring and RHD, which are allreduce shapes, fall back to the tree):
// the parties' contribution lists travel the reduce pattern unmerged with
// partial sums — each message still charges one partial-sum-sized payload —
// and root ends holding the full rank-sorted list (everyone else nil). It is
// the half-collective the hierarchical composition needs: an intra-node
// gather hands the node's contributions to its leader, who feeds them, still
// rank-tagged, into the inter-node allreduce.
//
// A non-nil dst (root only) makes it a reduction: root overwrites dst with
// the list's ordered sum the moment the list is complete — under the
// round-synchronized schedules that is before root's final arrival at the
// last round barrier, so the other parties, whose borrowed buffers the list
// aliases, cannot leave the collective before their bytes are consumed.
func (c *Communicator) gatherSeg(p *sim.Proc, rank, round, phase, si, root int, self []contrib, seg [2]int, dst []float32) []contrib {
	if len(c.parties) == 1 {
		// A lone party (a single-node cluster's leader): no message will
		// ever complete the list — it already is.
		if dst != nil {
			c.orderedSum(dst, self)
		}
		return self
	}
	switch c.sched {
	case ScheduleLinear:
		return c.linearGather(p, rank, round, phase, si, root, self, seg, dst)
	case ScheduleChain:
		return c.chainGather(p, rank, round, phase, si, root, self, seg, dst)
	default:
		return c.treeGather(p, rank, round, phase, si, root, self, seg, dst)
	}
}

// allReduceSeg runs one segment's allreduce under the schedule.
func (c *Communicator) allReduceSeg(p *sim.Proc, rank, round, si int, buf []float32, seg [2]int) {
	c.allReduceListSeg(p, rank, round, si, c.selfContrib(rank, buf, seg), buf, seg)
}

// allReduceListSeg runs one segment's allreduce where each party's input is
// a whole contribution *list* (self) rather than a single buffer view:
// every party's buf range ends holding the rank-ordered sum of the union of
// all lists. With the default single-contribution self this is exactly the
// flat allreduce; the hierarchical inter-node phase passes each leader its
// node's gathered list, so the final combine still runs over every global
// party in ascending tag order — the bit-identity invariant composes.
// nil self and buf select size-only mode.
func (c *Communicator) allReduceListSeg(p *sim.Proc, rank, round, si int, self []contrib, buf []float32, seg [2]int) {
	pow2 := len(c.parties)&(len(c.parties)-1) == 0
	switch {
	case c.sched == ScheduleRing:
		c.ringAllReduce(p, rank, round, si, self, buf, seg)
	case c.sched == ScheduleRHD && pow2:
		c.rhdAllReduce(p, rank, round, si, self, buf, seg)
	default: // tree, chain, linear, and RHD's non-power-of-two tree fallback
		c.reduceListSeg(p, rank, round, si, 0, self, buf, seg)
		c.bcastSeg(p, rank, round, si, 0, buf, seg)
	}
}

// ---- binomial tree ----

// treeBcast runs the binomial broadcast: ceil(log2 P) synchronized rounds,
// each pair moving the full segment — Θ(log P)(α + nβ).
func (c *Communicator) treeBcast(p *sim.Proc, rank, round, phase, si, root int, buf []float32, seg [2]int) {
	P := len(c.parties)
	vr := c.vrOf(rank, root)
	R := rounds(P)
	elems := seg[1] - seg[0]
	base := collKey{round, phase, si, 0, 0}
	synced := 0 // rounds whose barrier this party has arrived at
	for r := 0; r < R; r++ {
		mask := 1 << (R - 1 - r)
		key := collKey{round, phase, si, r, 0}
		var acted bool
		switch {
		case vr%(2*mask) == 0:
			if partner := vr + mask; partner < P {
				c.syncRounds(p, base, synced, r, R)
				var data []float32
				if buf != nil {
					data = buf[seg[0]:seg[1]]
				}
				c.send(p, rank, c.realOf(partner, root), collMsg{key: key, data: data}, c.wireOf(elems))
				acted = true
			}
		case vr%(2*mask) == mask:
			c.syncRounds(p, base, synced, r, R)
			m := c.recv(p, rank, c.realOf(vr-mask, root), key)
			if buf != nil {
				copy(buf[seg[0]:seg[1]], m.data)
			}
			acted = true
		}
		if acted {
			c.syncRounds(p, base, r, r+1, R)
			synced = r + 1
		}
	}
	c.syncRounds(p, base, synced, R, R)
}

// treeGather runs the binomial reduction pattern toward root, carrying
// rank-sorted contribution lists unmerged; root returns the full list (the
// combine order of ReduceSum), everyone else nil. self is this party's
// initial list (nil = size-only); dst is gatherSeg's.
func (c *Communicator) treeGather(p *sim.Proc, rank, round, phase, si, root int, self []contrib, seg [2]int, dst []float32) []contrib {
	P := len(c.parties)
	vr := c.vrOf(rank, root)
	R := rounds(P)
	elems := seg[1] - seg[0]
	base := collKey{round, phase, si, 0, 0}
	list := self
	sent := false
	synced := 0 // rounds whose barrier this party has arrived at
	for r := 0; r < R; r++ {
		mask := 1 << r
		key := collKey{round, phase, si, r, 0}
		if !sent {
			var acted bool
			if vr&mask != 0 {
				c.syncRounds(p, base, synced, r, R)
				c.send(p, rank, c.realOf(vr-mask, root), collMsg{key: key, contribs: list}, c.wireOf(elems))
				sent = true
				acted = true
			} else if partner := vr + mask; partner < P {
				c.syncRounds(p, base, synced, r, R)
				m := c.recv(p, rank, c.realOf(partner, root), key)
				list = mergeContribs(list, m.contribs)
				if dst != nil && r == R-1 {
					// Only root receives in the last round: its list is
					// complete, and every lender is still held at this
					// round's barrier.
					c.orderedSum(dst, list)
				}
				acted = true
			}
			if acted {
				c.syncRounds(p, base, r, r+1, R)
				synced = r + 1
			}
		}
	}
	c.syncRounds(p, base, synced, R, R)
	if vr == 0 {
		return list
	}
	return nil
}

// ---- linear (round-robin) ----

// linearBcast sends the segment to one party per synchronized step —
// Θ(P)(α + nβ), the baseline exchange.
func (c *Communicator) linearBcast(p *sim.Proc, rank, round, phase, si, root int, buf []float32, seg [2]int) {
	P := len(c.parties)
	vr := c.vrOf(rank, root)
	elems := seg[1] - seg[0]
	for s := 1; s < P; s++ {
		key := collKey{round, phase, si, s, 0}
		if vr == 0 {
			var data []float32
			if buf != nil {
				data = buf[seg[0]:seg[1]]
			}
			c.send(p, rank, c.realOf(s, root), collMsg{key: key, data: data}, c.wireOf(elems))
		} else if vr == s {
			m := c.recv(p, rank, root, key)
			if buf != nil {
				copy(buf[seg[0]:seg[1]], m.data)
			}
		}
		c.sync(p, key)
	}
}

// linearGather receives one party's contribution list per synchronized step;
// root returns the merged list, everyone else nil. dst is gatherSeg's.
func (c *Communicator) linearGather(p *sim.Proc, rank, round, phase, si, root int, self []contrib, seg [2]int, dst []float32) []contrib {
	P := len(c.parties)
	vr := c.vrOf(rank, root)
	elems := seg[1] - seg[0]
	list := self
	for s := 1; s < P; s++ {
		key := collKey{round, phase, si, s, 0}
		if vr == s {
			c.send(p, rank, root, collMsg{key: key, contribs: list}, c.wireOf(elems))
		} else if vr == 0 {
			m := c.recv(p, rank, c.realOf(s, root), key)
			list = mergeContribs(list, m.contribs)
			if dst != nil && s == P-1 {
				c.orderedSum(dst, list) // complete; lenders still held at this step's barrier
			}
		}
		c.sync(p, key)
	}
	if vr == 0 {
		return list
	}
	return nil
}

// ---- ring allreduce ----

// ringChunks splits the segment's elements into P contiguous chunks, the
// first (elems mod P) of them one element larger.
func ringChunks(seg [2]int, P int) [][2]int {
	elems := seg[1] - seg[0]
	base, rem := elems/P, elems%P
	out := make([][2]int, P)
	lo := seg[0]
	for i := 0; i < P; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out[i] = [2]int{lo, lo + sz}
		lo += sz
	}
	return out
}

// ringAllReduce runs the bandwidth-optimal ring: P−1 reduce-scatter steps
// carrying contribution lists, a local rank-ordered combine of the owned
// chunk, then P−1 allgather steps distributing the sums. Every step is
// synchronized, and all P chunks are in flight per step, so the step time
// is the largest chunk's wire time — 2(P−1)(α + ceil(n/P)β) total. self is
// this party's initial contribution list (nil = size-only); the per-element
// combine order is the tag order of the union of lists, so chunking never
// changes the mathematics.
func (c *Communicator) ringAllReduce(p *sim.Proc, rank, round, si int, self []contrib, buf []float32, seg [2]int) {
	P := len(c.parties)
	chunks := ringChunks(seg, P)
	next, prev := (rank+1)%P, (rank+P-1)%P
	mod := func(x int) int { return ((x % P) + P) % P }

	lists := make([][]contrib, P)
	if self != nil {
		clipped := make([]contrib, 0, P*len(self)) // one backing array for all P chunk lists
		for i, ch := range chunks {
			n := len(clipped)
			clipped = clipContribs(clipped, self, seg, ch)
			lists[i] = clipped[n:len(clipped):len(clipped)]
		}
	}
	// Reduce-scatter: at step s, rank r forwards chunk (r−s)'s accumulated
	// list to r+1 and receives chunk (r−1−s)'s from r−1; after P−1 steps
	// rank r holds every contribution for chunk r.
	for s := 1; s < P; s++ {
		key := collKey{round, phReduce, si, s, 0}
		cs := mod(rank - s)
		cr := mod(rank - s - 1)
		c.send(p, rank, next, collMsg{key: key, contribs: lists[cs]},
			c.wireOf(chunks[cs][1]-chunks[cs][0]))
		m := c.recv(p, rank, prev, key)
		if self != nil {
			lists[cr] = mergeContribs(lists[cr], m.contribs)
		}
		c.sync(p, key)
	}
	if buf != nil {
		own := chunks[rank]
		c.orderedSum(buf[own[0]:own[1]], lists[rank])
	}
	// Allgather: summed chunks travel the ring once more.
	for s := 1; s < P; s++ {
		key := collKey{round, phBcast, si, s, 0}
		cs := mod(rank - s + 1)
		cr := mod(rank - s)
		var data []float32
		if buf != nil {
			data = buf[chunks[cs][0]:chunks[cs][1]]
		}
		c.send(p, rank, next, collMsg{key: key, data: data},
			c.wireOf(chunks[cs][1]-chunks[cs][0]))
		m := c.recv(p, rank, prev, key)
		if buf != nil {
			copy(buf[chunks[cr][0]:chunks[cr][1]], m.data)
		}
		c.sync(p, key)
	}
}

// ---- recursive halving / doubling ----

// rhdAllReduce (power-of-two parties): reduce-scatter by recursive
// halving — partners exchange opposite halves of their current range, so
// message sizes fall n/2, n/4, … n/P — then allgather by recursive
// doubling, mirroring the sizes back up. Contribution lists ride the
// halving so each element is still combined in ascending tag order. self is
// this party's initial contribution list (nil = size-only).
func (c *Communicator) rhdAllReduce(p *sim.Proc, rank, round, si int, self []contrib, buf []float32, seg [2]int) {
	P := len(c.parties)
	lo, hi := seg[0], seg[1]
	list := self
	var kept []contrib // the half this party keeps, re-clipped in place each step

	type span struct{ lo, hi int }
	var trail []span // range at entry of each halving step, for the doubling phase
	step := 0
	for mask := P / 2; mask >= 1; mask >>= 1 {
		partner := rank ^ mask
		mid := lo + (hi-lo+1)/2
		var keepLo, keepHi, sendLo, sendHi int
		if rank&mask == 0 {
			keepLo, keepHi, sendLo, sendHi = lo, mid, mid, hi
		} else {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		key := collKey{round, phReduce, si, step, 0}
		out := clipContribs(nil, list, [2]int{lo, hi}, [2]int{sendLo, sendHi})
		c.send(p, rank, partner, collMsg{key: key, contribs: out}, c.wireOf(sendHi-sendLo))
		m := c.recv(p, rank, partner, key)
		if self != nil {
			kept = clipContribs(kept[:0], list, [2]int{lo, hi}, [2]int{keepLo, keepHi})
			list = mergeContribs(kept, m.contribs)
		}
		trail = append(trail, span{lo, hi})
		lo, hi = keepLo, keepHi
		c.sync(p, key)
		step++
	}
	if buf != nil {
		c.orderedSum(buf[lo:hi], list)
	}
	// Doubling: walk the halving steps in reverse; each exchange restores
	// the range the corresponding halving step split.
	for j := 0; (1 << j) <= P/2; j++ {
		partner := rank ^ (1 << j)
		key := collKey{round, phBcast, si, step, 0}
		var data []float32
		if buf != nil {
			data = buf[lo:hi]
		}
		c.send(p, rank, partner, collMsg{key: key, lo: lo, data: data}, c.wireOf(hi-lo))
		m := c.recv(p, rank, partner, key)
		if buf != nil {
			copy(buf[m.lo:m.lo+len(m.data)], m.data)
		}
		merged := trail[len(trail)-1-j]
		lo, hi = merged.lo, merged.hi
		c.sync(p, key)
		step++
	}
}

// ---- pipelined chain ----

// chainChunks splits the segment into pipeline chunks of ChunkElems.
func (c *Communicator) chainChunks(seg [2]int) [][2]int {
	var out [][2]int
	for lo := seg[0]; lo < seg[1]; lo += c.chunk {
		hi := lo + c.chunk
		if hi > seg[1] {
			hi = seg[1]
		}
		out = append(out, [2]int{lo, hi})
	}
	if len(out) == 0 {
		out = append(out, seg)
	}
	return out
}

// chainBcast streams chunks down the chain root→…→last with no round
// synchronization: hop h forwards chunk k while hop h−1 is already
// sending chunk k+1, so for C chunks the cost approaches
// (P−2+C)(α + (n/C)β) instead of the tree's log2(P)(α + nβ) — the
// pipelined variant large packed buffers want.
//
// The missing synchronization is also why the chain cannot borrow: nothing
// holds a sender inside the collective until its successor has read the
// chunk (a barrier would, and would destroy the pipelining and move the
// simulated time), so every send carries a copy, which the receiver returns
// to the free list once it has copied out.
func (c *Communicator) chainBcast(p *sim.Proc, rank, round, phase, si, root int, buf []float32, seg [2]int) {
	P := len(c.parties)
	vr := c.vrOf(rank, root)
	for k, ch := range c.chainChunks(seg) {
		key := collKey{round, phase, si, 0, k}
		if vr > 0 {
			m := c.recv(p, rank, c.realOf(vr-1, root), key)
			if buf != nil {
				copy(buf[ch[0]:ch[1]], m.data)
				c.free.release(m.data)
			}
		}
		if vr < P-1 {
			var data []float32
			if buf != nil {
				data = c.free.snapshot(buf[ch[0]:ch[1]])
			}
			c.send(p, rank, c.realOf(vr+1, root), collMsg{key: key, data: data}, c.wireOf(ch[1]-ch[0]))
		}
	}
}

// chainGather streams contribution chunks up the chain last→…→root with no
// round synchronization; root reassembles the chunk streams into full-range
// contributions and returns the merged list, everyone else nil. Every chunk
// carries the same tag set (each party's self covers the whole segment), so
// the reassembly just concatenates each tag's chunk pieces in order. As in
// chainBcast, a party may return while its chunks are still hops away from
// root, so it sends copies of its own contributions; root recycles them
// after reassembly. dst is gatherSeg's.
func (c *Communicator) chainGather(p *sim.Proc, rank, round, phase, si, root int, self []contrib, seg [2]int, dst []float32) []contrib {
	P := len(c.parties)
	vr := c.vrOf(rank, root)
	var assembled []contrib
	for k, ch := range c.chainChunks(seg) {
		key := collKey{round, phase, si, 0, k}
		list := clipContribs(nil, self, seg, ch)
		if vr > 0 {
			for i := range list {
				list[i].vals = c.free.snapshot(list[i].vals)
			}
		}
		var m collMsg
		if vr < P-1 {
			m = c.recv(p, rank, c.realOf(vr+1, root), key)
			list = mergeContribs(list, m.contribs)
		}
		if vr > 0 {
			c.send(p, rank, c.realOf(vr-1, root), collMsg{key: key, contribs: list}, c.wireOf(ch[1]-ch[0]))
		} else if list != nil {
			if assembled == nil {
				assembled = make([]contrib, len(list))
				for i, cb := range list {
					assembled[i] = contrib{rank: cb.rank, vals: make([]float32, seg[1]-seg[0])}
				}
			}
			for i, cb := range list {
				copy(assembled[i].vals[ch[0]-seg[0]:ch[1]-seg[0]], cb.vals)
			}
			for _, cb := range m.contribs {
				c.free.release(cb.vals)
			}
		}
	}
	if dst != nil {
		c.orderedSum(dst, assembled)
	}
	return assembled
}
