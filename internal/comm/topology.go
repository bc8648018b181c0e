package comm

import (
	"fmt"
	"strconv"

	"scaledl/internal/sim"
)

// Topology is the message fabric of the simulation: a set of nodes (GPUs,
// the host CPU, KNL nodes) and a directed α-β path between every
// communicating pair. A path may route through shared segments — a PCIe
// switch, a host uplink, a memory bus — modeled as sim.Resources that a
// transfer holds for its duration, so bandwidth contention between
// concurrent messages *emerges* from the simulation instead of being
// asserted by a closed-form factor. A topology with no shared segments is
// contention-free: every message costs exactly its link's α + nβ, which is
// what lets the collective engine be checked against the analytic cost
// functions in this package.
type Topology struct {
	env *sim.Env
	n   int
	// paths holds explicitly installed routes; rows are allocated lazily so
	// a large rule-wired topology (NewUniform at P=1024, a multi-level
	// cluster) never materializes its O(n²) path matrix.
	paths [][]Path
	// rule computes the route for pairs with no explicit entry. Regular
	// fabrics (uniform cliques, composed clusters) are wired by rule in
	// O(1), which is what makes thousand-party topologies cheap to build.
	rule  func(src, dst int) Path
	inbox []*sim.Queue
	bytes int64
	// msgPool recycles delivered Message boxes: inboxes store *Message so a
	// send boxes a pooled pointer instead of allocating a fresh interface
	// value per message (the simulation is single-threaded by construction,
	// so a plain free list suffices).
	msgPool []*Message
	// Semantic fault state (chaos.go). chaos == nil && !hasDead is the
	// fault-free fast path: Send runs the exact pre-chaos code with no
	// per-message overhead.
	chaos     *Chaos
	dice      *sim.Dice
	sendSeq   int64
	hasDead   bool
	dead      []bool
	deadSig   []*sim.Signal
	retryWait []float64
	stats     ChaosStats
}

// getMsg takes a Message box from the pool.
func (t *Topology) getMsg() *Message {
	if n := len(t.msgPool); n > 0 {
		m := t.msgPool[n-1]
		t.msgPool = t.msgPool[:n-1]
		return m
	}
	return new(Message)
}

// putMsg returns a consumed box to the pool.
func (t *Topology) putMsg(m *Message) {
	*m = Message{}
	t.msgPool = append(t.msgPool, m)
}

// Path is one directed src→dst route: an α-β (or saturating) link plus the
// shared segments the transfer occupies while in flight. Segments are
// acquired in slice order and released in reverse; topologies must list
// shared segments in a consistent global order to stay deadlock-free (the
// built-in constructors use at most one segment per path).
type Path struct {
	Link Transferer
	Via  []*sim.Resource
}

// Message is one delivered payload, tagged with its source node and an
// application-chosen tag.
type Message struct {
	Src, Tag int
	Payload  any
}

// NewTopology creates n nodes with no paths; wire them with SetPath and/or
// SetPathRule.
func NewTopology(env *sim.Env, n int) *Topology {
	if n < 1 {
		panic("comm: topology needs at least one node")
	}
	t := &Topology{env: env, n: n, paths: make([][]Path, n), inbox: make([]*sim.Queue, n)}
	for i := 0; i < n; i++ {
		t.inbox[i] = sim.NewQueue(env, "node"+strconv.Itoa(i))
	}
	return t
}

// Env returns the simulation environment the topology runs in.
func (t *Topology) Env() *sim.Env { return t.env }

// Nodes returns the number of nodes.
func (t *Topology) Nodes() int { return t.n }

// BytesMoved returns the cumulative wire bytes of every transfer so far;
// algorithms sample deltas to attribute traffic to phases.
func (t *Topology) BytesMoved() int64 { return t.bytes }

// SetPath installs the directed route src→dst. Explicit routes override the
// topology's path rule.
func (t *Topology) SetPath(src, dst int, l Transferer, via ...*sim.Resource) {
	t.checkNode(src)
	t.checkNode(dst)
	if t.paths[src] == nil {
		t.paths[src] = make([]Path, t.n)
	}
	t.paths[src][dst] = Path{Link: l, Via: via}
}

// SetPathRule installs a fallback rule consulted for pairs without an
// explicit SetPath entry; returning a Path with a nil Link means no route.
// Rules keep regular large fabrics O(1) to construct. The rule must be
// pure: the same pair always yields the same route.
func (t *Topology) SetPathRule(rule func(src, dst int) Path) { t.rule = rule }

// pathFor resolves the route src→dst: an explicit entry if present,
// otherwise the path rule.
func (t *Topology) pathFor(src, dst int) Path {
	if row := t.paths[src]; row != nil && row[dst].Link != nil {
		return row[dst]
	}
	if t.rule != nil {
		return t.rule(src, dst)
	}
	return Path{}
}

func (t *Topology) checkNode(id int) {
	if id < 0 || id >= t.n {
		panic(fmt.Sprintf("comm: node %d outside topology of %d", id, t.n))
	}
}

// occupy charges p the transfer of wireBytes along src→dst: it acquires
// the path's shared segments, delays for the link time and releases. It is
// the one place simulated time is spent on communication.
func (t *Topology) occupy(p *sim.Proc, src, dst int, wireBytes int64) {
	t.checkNode(src)
	t.checkNode(dst)
	path := t.pathFor(src, dst)
	if path.Link == nil {
		panic(fmt.Sprintf("comm: no path %d->%d", src, dst))
	}
	for _, r := range path.Via {
		p.Acquire(r)
	}
	p.Delay(path.Link.Time(wireBytes))
	for i := len(path.Via) - 1; i >= 0; i-- {
		path.Via[i].Release()
	}
	t.bytes += wireBytes
}

// Send transmits payload from src to dst: the calling process pays the
// wire time (holding any shared segments), then the message is delivered
// to dst's mailbox. Payloads are delivered by reference, never copied: a
// payload that views a live buffer is a loan, and the buffer must not change
// until the receiver has consumed it. The collective engine lends its
// callers' buffers this way and keeps the lender blocked until the bytes are
// read (the buffer-reuse contract in collective.go); a sender that returns
// to its caller without such an ordering guarantee must send a copy. With
// chaos installed or a dead node present, delivery runs the guarded protocol
// (chaos.go): seeded loss/corruption, ack/timeout/retry, cancellation on
// destination death.
func (t *Topology) Send(p *sim.Proc, src, dst, tag int, payload any, wireBytes int64) {
	if t.chaos != nil || t.hasDead {
		t.checkNode(src)
		t.checkNode(dst)
		t.sendGuarded(p, src, dst, tag, payload, wireBytes)
		return
	}
	t.occupy(p, src, dst, wireBytes)
	m := t.getMsg()
	*m = Message{Src: src, Tag: tag, Payload: payload}
	t.inbox[dst].Send(m)
}

// Recv blocks until a message with the given source and tag arrives at
// node `at` and returns its payload, leaving other queued messages intact
// (selective receive). Under chaos, payloads failing their checksum are
// never matched — the sender's ack timeout resends them pristine.
func (t *Topology) Recv(p *sim.Proc, at, src, tag int) any {
	t.checkNode(at)
	t.purgeCorrupt(at)
	m := p.RecvMatch(t.inbox[at], func(v any) bool {
		msg := v.(*Message)
		return msg.Src == src && msg.Tag == tag && !t.rejectCorrupt(msg.Payload)
	}).(*Message)
	payload := m.Payload
	t.putMsg(m)
	return payload
}

// RecvMatch blocks until a message at node `at` satisfies match. Corrupt
// payloads are rejected before match sees them.
func (t *Topology) RecvMatch(p *sim.Proc, at int, match func(Message) bool) Message {
	t.checkNode(at)
	t.purgeCorrupt(at)
	m := p.RecvMatch(t.inbox[at], func(v any) bool {
		msg := v.(*Message)
		return !t.rejectCorrupt(msg.Payload) && match(*msg)
	}).(*Message)
	out := *m
	t.putMsg(m)
	return out
}

// RecvMatchTimeout is RecvMatch with a deadline in simulated seconds: it
// returns (message, true) when a match arrives in time, or (Message{},
// false) once the deadline passes — the primitive behind partial
// aggregation, where a coordinator stops waiting for stragglers.
func (t *Topology) RecvMatchTimeout(p *sim.Proc, at int, timeout float64, match func(Message) bool) (Message, bool) {
	t.checkNode(at)
	t.purgeCorrupt(at)
	v, ok := p.RecvMatchTimeout(t.inbox[at], timeout, func(v any) bool {
		msg := v.(*Message)
		return !t.rejectCorrupt(msg.Payload) && match(*msg)
	})
	if !ok {
		return Message{}, false
	}
	m := v.(*Message)
	out := *m
	t.putMsg(m)
	return out, true
}

// RecvAny blocks until any message arrives at node `at` and returns it in
// arrival order — the first-come-first-served inbox of a parameter-server
// master. Corrupt payloads are skipped.
func (t *Topology) RecvAny(p *sim.Proc, at int) Message {
	t.checkNode(at)
	if t.chaos != nil {
		return t.RecvMatch(p, at, func(Message) bool { return true })
	}
	m := p.Recv(t.inbox[at]).(*Message)
	out := *m
	t.putMsg(m)
	return out
}

// DelayModel charges p one whole-model transfer src→dst under the plan
// without delivering a message: per-segment wire messages (so per-layer
// plans pay one α per layer) plus the plan's gather staging, with
// wireBytes distributed across segments pro rata. It models transfers the
// *receiving* side drives (the round-robin master pulling W_j up), where
// the payload hand-off happens through another channel.
func (t *Topology) DelayModel(p *sim.Proc, src, dst int, plan Plan, wireBytes int64) {
	if plan.GatherBW > 0 && !plan.Packed {
		p.Delay(float64(plan.TotalBytes()) / plan.GatherBW)
	}
	for _, seg := range planWire(plan, wireBytes) {
		t.occupy(p, src, dst, seg)
	}
}

// SendModel transmits a whole-model payload src→dst with DelayModel's cost
// shape, then delivers it to dst's mailbox. It returns the wire bytes
// charged (= wireBytes).
func (t *Topology) SendModel(p *sim.Proc, src, dst, tag int, payload any, plan Plan, wireBytes int64) int64 {
	t.DelayModel(p, src, dst, plan, wireBytes)
	m := t.getMsg()
	*m = Message{Src: src, Tag: tag, Payload: payload}
	t.inbox[dst].Send(m)
	return wireBytes
}

// planWire splits a total wire size across the plan's segments pro rata to
// their raw sizes: an uncompressed model transfers exactly its per-layer
// byte counts; a quantized one shrinks every segment by the same ratio.
func planWire(plan Plan, wireBytes int64) []int64 {
	total := plan.TotalBytes()
	if plan.Packed || len(plan.LayerBytes) <= 1 || total == 0 {
		return []int64{wireBytes}
	}
	out := make([]int64, len(plan.LayerBytes))
	var used int64
	for i, b := range plan.LayerBytes[:len(plan.LayerBytes)-1] {
		out[i] = wireBytes * b / total
		used += out[i]
	}
	out[len(out)-1] = wireBytes - used
	return out
}

// NewUniform builds an n-node contention-free clique: every ordered pair
// gets a dedicated copy of link l. This is the analytic model's topology —
// message waves of a round never queue on each other — and the one the
// oracle-equality tests run on. It also models switched fabrics (KNL's
// Aries) at collective scale, where per-stage bandwidth is already folded
// into the link model.
func NewUniform(env *sim.Env, n int, l Transferer) *Topology {
	t := NewTopology(env, n)
	t.SetPathRule(func(src, dst int) Path {
		if src == dst {
			return Path{}
		}
		return Path{Link: l}
	})
	return t
}

// NewBus builds an n-node topology whose every transfer serializes on one
// shared capacity-cap segment — a memory bus or fully shared medium. With
// cap=1 a tree reduction degenerates to (n−1) sequential transfers, which
// is how the KNL chip's partition-sum (a bandwidth-bound shared-memory
// combine) is modeled.
func NewBus(env *sim.Env, n int, l Transferer, cap_ int) *Topology {
	if cap_ < 1 {
		panic("comm: bus capacity must be >= 1")
	}
	bus := sim.NewResource(env, "bus", cap_)
	via := []*sim.Resource{bus}
	t := NewTopology(env, n)
	t.SetPathRule(func(src, dst int) Path {
		if src == dst {
			return Path{}
		}
		return Path{Link: l, Via: via}
	})
	return t
}

// PCIeConfig describes the paper's single-node multi-GPU topology.
type PCIeConfig struct {
	// GPUs is the worker count; they are nodes 0..GPUs-1 and the host is
	// node GPUs (see Topology.Host).
	GPUs int
	// Host carries GPU↔host parameter traffic (pageable or pinned PCIe).
	Host Transferer
	// Peer carries direct GPU↔GPU P2P DMA through the switch.
	Peer Transferer
	// HostStaged, when true, routes GPU↔GPU exchanges through host staging
	// (the pre-§5.2 transfer mode of Sync EASGD1 and the original code):
	// each pair hop then costs one Host-link transfer instead of peer DMA.
	HostStaged bool
	// SwitchConcurrency bounds how many transfers the PCIe switch carries
	// at once; 0 means unconstrained (the analytic model's assumption that
	// a round's pair transfers never queue — the 96-lane switch of the
	// paper's M40 nodes sustains a full round in parallel).
	SwitchConcurrency int
}

// NewPCIeTree builds the PCIe tree of the paper's GPU systems: GPUs
// 0..g-1 behind a shared switch, the host as node g. All paths optionally
// share the switch segment, so SwitchConcurrency < g/2 makes collective
// rounds contend — the knob for studying switch oversubscription.
func NewPCIeTree(env *sim.Env, cfg PCIeConfig) *Topology {
	if cfg.GPUs < 1 {
		panic("comm: PCIe tree needs at least one GPU")
	}
	var via []*sim.Resource
	if cfg.SwitchConcurrency > 0 {
		via = []*sim.Resource{sim.NewResource(env, "pcie-switch", cfg.SwitchConcurrency)}
	}
	t := NewTopology(env, cfg.GPUs+1)
	host := cfg.GPUs
	gg := cfg.Peer
	if cfg.HostStaged {
		gg = cfg.Host
	}
	for i := 0; i < cfg.GPUs; i++ {
		t.SetPath(i, host, cfg.Host, via...)
		t.SetPath(host, i, cfg.Host, via...)
		for j := 0; j < cfg.GPUs; j++ {
			if i != j {
				t.SetPath(i, j, gg, via...)
			}
		}
	}
	return t
}

// Host returns the host node id of a topology built by NewPCIeTree.
func (t *Topology) Host() int { return t.n - 1 }
