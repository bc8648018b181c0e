package comm

import (
	"fmt"

	"scaledl/internal/sim"
	"scaledl/internal/tensor"
)

// This file is the sufficient-factor broadcasting (SFB) transport —
// Poseidon's observation applied to the engine. A dense layer's weight
// gradient is the outer product dW = dYᵀ·X of two backward activations
// (dY is B×F, X is B×D), so instead of allreducing the F×D gradient each
// party broadcasts its factor pair — O(B·(F+D)) wire per peer instead of
// O(F·D) — and every receiver reconstructs Σₚ dYₚᵀ·Xₚ locally. At the fc
// shapes of the paper's models (F, D in the thousands, B in the tens) the
// factor payload is orders of magnitude smaller than the gradient.
//
// The transport is a factor *allgather*: after one call every party holds
// all P parties' factor pairs, in ascending contribution-rank order. Two
// message patterns implement it, selected by the communicator's schedule:
// ScheduleRing (and any schedule at non-power-of-two P) walks the classic
// ring allgather — P−1 synchronized steps, each forwarding one party's
// payload — while the remaining schedules use recursive doubling — log2 P
// steps of pairwise exchange with doubling payloads. Both move exactly
// P·(P−1) factor payloads of wire in total (FactorAllGatherBytes), and both
// have closed α-β forms (AnalyticFactorAllGatherTime). Messages ride the
// same Topology.Send path as every other collective, so chaos-tier guarded
// delivery (loss, corruption, retries, per-attempt wire accounting) applies
// unchanged; collMsg's checksum and garbling cover factor payloads.
//
// The engine's ordered-reduction invariant extends to SFB: receivers
// reconstruct through ReconstructFactors, which replays each party's own
// gradient computation (the same packed GEMM and bias column sums the dense
// layer ran, from a zero buffer) and then combines the per-party results in
// ascending rank order with the exact association order of orderedSum — so
// the reconstructed gradient is bit-identical to the dense allreduce of the
// same contributions, for every schedule, flat or hierarchical.

// Factors is one party's sufficient-factor pair for one dense layer: the
// backward activations whose outer product dYᵀ·X is the party's weight
// gradient (dY is B×F, X is B×D), plus the column sums of dY for the bias.
type Factors struct {
	// Rank is the contribution tag ordering the reconstruction combine —
	// party rank on a flat communicator, global rank hierarchically.
	Rank    int
	DY, X   []float32 // B×F and B×D row-major
	B, F, D int
}

// Elems is the factor pair's element count B·(F+D) — the per-party wire
// payload, against the F·D+F elements of the dense gradient it replaces.
func (f Factors) Elems() int { return f.B * (f.F + f.D) }

// factorsElems sums a list's element counts.
func factorsElems(fs []Factors) int {
	n := 0
	for _, f := range fs {
		n += f.Elems()
	}
	return n
}

// sortFactors orders a list ascending by Rank (insertion sort: lists are
// short — one entry per party — and usually already ordered).
func sortFactors(fs []Factors) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Rank < fs[j-1].Rank; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// checkFactors validates a factor pair's dimensions.
func checkFactors(f Factors) {
	if f.B <= 0 || f.F <= 0 || f.D <= 0 || len(f.DY) != f.B*f.F || len(f.X) != f.B*f.D {
		panic(fmt.Sprintf("comm: factors |dY|=%d |X|=%d for B=%d F=%d D=%d",
			len(f.DY), len(f.X), f.B, f.F, f.D))
	}
}

// snapFactors copies a party's factor views at send time and stamps the
// contribution tag. Unlike a dense contribution, a factor pair cannot be
// borrowed: the allgather *returns* it to every party, which reconstructs
// from it after the lender's call — and its backward buffers' lifetime — has
// ended.
func snapFactors(tag int, f Factors) Factors {
	return Factors{Rank: tag, DY: snapshot(f.DY), X: snapshot(f.X), B: f.B, F: f.F, D: f.D}
}

func snapshot(v []float32) []float32 { return append([]float32(nil), v...) }

// phFactor keys factor-collective messages apart from the reduce, broadcast
// and hierarchical hand-off phases sharing a round number.
const phFactor = phHand + 1

// factorPatternIsRing reports whether the schedule maps to the ring
// allgather pattern: ScheduleRing always, and every schedule at
// non-power-of-two P (recursive doubling needs pairs, like rhdAllReduce).
func factorPatternIsRing(s Schedule, p int) bool {
	return s == ScheduleRing || p&(p-1) != 0
}

// FactorAllGather shares every party's factor pair: each party passes its
// own (self; Rank is stamped by the engine) and returns all P parties'
// pairs in ascending Rank order, ready for ReconstructFactors. out, when
// non-nil, provides reusable backing for the returned slice. Concurrent
// calls must use distinct round numbers, like every other collective.
func (ep *Endpoint) FactorAllGather(p *sim.Proc, round int, self Factors, out []Factors) []Factors {
	checkFactors(self)
	e, rank, _ := ep.live(0, false)
	snap := snapFactors(e.tagOf(rank), self)
	return e.factorAllGather(p, rank, round, []Factors{snap}, snap.Elems(), out)
}

// FactorAllGatherSize walks the same message schedule moving no data, with
// every party contributing elemsPerParty factor elements — the cost-only
// path for scales too large to materialize. Flat endpoints only: the
// hierarchical engine has no size-only factor path and panics.
func (ep *Endpoint) FactorAllGatherSize(p *sim.Proc, round, elemsPerParty int) {
	e, rank, _ := ep.live(0, false)
	e.factorAllGather(p, rank, round, nil, elemsPerParty, nil)
}

// factorAllGather is the flat engine: an allgather whose per-party input is a
// factor *list* (one entry flat; a node's gathered entries hierarchically).
// Every party returns the union of all lists, ascending by Rank. A nil self
// is size-only: wire is charged as if each party contributed elems factor
// elements.
func (c *Communicator) factorAllGather(p *sim.Proc, rank, round int, self []Factors, elems int, out []Factors) []Factors {
	P := len(c.parties)
	if P == 1 {
		return append(out[:0], self...)
	}
	sizeOnly := self == nil
	if factorPatternIsRing(c.sched, P) {
		return c.factorRingAllGather(p, rank, round, self, elems, sizeOnly, out)
	}
	return c.factorRDAllGather(p, rank, round, self, elems, sizeOnly, out)
}

// factorRingAllGather: P−1 synchronized steps; at step s every party
// forwards the list it received at step s−1 (its own at step 1) to its
// successor — the bandwidth-optimal allgather, (P−1)(α + Sβ) for equal
// payloads S.
func (c *Communicator) factorRingAllGather(p *sim.Proc, rank, round int, self []Factors, elems int, sizeOnly bool, out []Factors) []Factors {
	P := len(c.parties)
	next, prev := (rank+1)%P, (rank+P-1)%P
	mod := func(x int) int { return ((x % P) + P) % P }
	lists := make([][]Factors, P)
	lists[rank] = self
	for s := 1; s < P; s++ {
		key := collKey{round, phFactor, 0, s, 0}
		cs, cr := mod(rank-s+1), mod(rank-s)
		wireElems := elems
		if !sizeOnly {
			wireElems = factorsElems(lists[cs])
		}
		c.send(p, rank, next, collMsg{key: key, factors: lists[cs]}, c.wireOf(wireElems))
		m := c.recv(p, rank, prev, key)
		lists[cr] = m.factors
		c.sync(p, key)
	}
	if sizeOnly {
		return nil
	}
	out = out[:0]
	for _, l := range lists {
		out = append(out, l...)
	}
	sortFactors(out)
	return out
}

// factorRDAllGather: recursive doubling (power-of-two P) — log2 P
// synchronized steps of pairwise exchange, each sending everything held so
// far, so payloads double S, 2S, … P/2·S and the total wire matches the
// ring's exactly.
func (c *Communicator) factorRDAllGather(p *sim.Proc, rank, round int, self []Factors, elems int, sizeOnly bool, out []Factors) []Factors {
	P := len(c.parties)
	held := append(out[:0], self...)
	step := 0
	for mask := 1; mask < P; mask <<= 1 {
		partner := rank ^ mask
		key := collKey{round, phFactor, 0, step, 0}
		wireElems := mask * elems
		payload := held
		if !sizeOnly {
			wireElems = factorsElems(held)
			// The payload must be stable while held keeps growing.
			payload = append([]Factors(nil), held...)
		}
		c.send(p, rank, partner, collMsg{key: key, factors: payload}, c.wireOf(wireElems))
		m := c.recv(p, rank, partner, key)
		held = append(held, m.factors...)
		c.sync(p, key)
		step++
	}
	if sizeOnly {
		return nil
	}
	sortFactors(held)
	return held
}

// ---- hierarchical composition ----

// factorAllGather is the two-level engine: each group's entries gather at its
// leader (binomial pattern, factor-sized messages), leaders allgather the
// group lists over the fabric, and the full P-entry list fans back out
// locally — so every party returns all parties' factors in ascending
// global-rank order, never putting every GPU on the fabric.
func (hc *HierCommunicator) factorAllGather(p *sim.Proc, rank, round int, self []Factors, elems int, out []Factors) []Factors {
	if self == nil {
		panic("comm: FactorAllGatherSize on a hierarchical endpoint: the two-level factor allgather has no size-only path")
	}
	g, local := hc.groupOf[rank], hc.localOf[rank]
	ic, lead := hc.intra[g], hc.leaderOf[g]
	list := ic.factorGather(p, local, round, lead, self)
	if local == lead {
		list = hc.inter.factorAllGather(p, g, round, list, 0, out)
	}
	list = ic.factorBcast(p, local, round, lead, list)
	sortFactors(list)
	return list
}

// factorGather walks the binomial reduction pattern toward root with factor
// lists as payloads; root returns the concatenation, everyone else nil.
func (c *Communicator) factorGather(p *sim.Proc, rank, round, root int, self []Factors) []Factors {
	P := len(c.parties)
	if P == 1 {
		return self
	}
	vr := c.vrOf(rank, root)
	R := rounds(P)
	list := self
	sent := false
	for r := 0; r < R; r++ {
		mask := 1 << r
		key := collKey{round, phFactor, 1, r, 0}
		if !sent {
			if vr&mask != 0 {
				c.send(p, rank, c.realOf(vr-mask, root), collMsg{key: key, factors: list}, c.wireOf(factorsElems(list)))
				sent = true
			} else if partner := vr + mask; partner < P {
				m := c.recv(p, rank, c.realOf(partner, root), key)
				list = append(list, m.factors...)
			}
		}
		c.sync(p, key)
	}
	if vr == 0 {
		return list
	}
	return nil
}

// factorBcast distributes root's factor list down the binomial tree; every
// party returns the list.
func (c *Communicator) factorBcast(p *sim.Proc, rank, round, root int, list []Factors) []Factors {
	P := len(c.parties)
	if P == 1 {
		return list
	}
	vr := c.vrOf(rank, root)
	R := rounds(P)
	for r := 0; r < R; r++ {
		mask := 1 << (R - 1 - r)
		key := collKey{round, phFactor, 2, r, 0}
		switch {
		case vr%(2*mask) == 0:
			if partner := vr + mask; partner < P {
				c.send(p, rank, c.realOf(partner, root), collMsg{key: key, factors: list}, c.wireOf(factorsElems(list)))
			}
		case vr%(2*mask) == mask:
			m := c.recv(p, rank, c.realOf(vr-mask, root), key)
			list = m.factors
		}
		c.sync(p, key)
	}
	return list
}

// ---- reconstruction ----

// ReconstructFactors overwrites dst — one dense layer's packed [W | b]
// gradient range, length F·D+F — with the rank-ordered sum of the parties'
// gradients recomputed from their factors. For each entry, ascending by
// Rank (the list FactorAllGather returns is already ordered), it replays
// exactly the computation the owning party ran: dW = dYᵀ·X through the same
// packed GEMM from a zero buffer, db = column sums of dY in the same order
// — then combines with the association order of orderedSum. The result is
// therefore bit-identical to the dense allreduce of the same contributions.
// scratch must hold F·D+F elements (it is grown if short) and is returned
// for reuse.
func ReconstructFactors(dst []float32, factors []Factors, scratch []float32) []float32 {
	for i := range dst {
		dst[i] = 0
	}
	for _, f := range factors {
		wn := f.F * f.D
		n := wn + f.F
		if len(dst) != n {
			panic(fmt.Sprintf("comm: reconstruct dst of %d elements for F=%d D=%d (want %d)",
				len(dst), f.F, f.D, n))
		}
		if cap(scratch) < n {
			scratch = make([]float32, n)
		}
		s := scratch[:n]
		for i := range s {
			s[i] = 0
		}
		tensor.MatMulAddTransA(tensor.Wrap(s[:wn], f.F, f.D),
			tensor.Wrap(f.DY, f.B, f.F), tensor.Wrap(f.X, f.B, f.D))
		db := s[wn:]
		for i := 0; i < f.B; i++ {
			row := f.DY[i*f.F : (i+1)*f.F]
			for j, v := range row {
				db[j] += v
			}
		}
		tensor.AXPY(1, s, dst)
	}
	return scratch
}

// FactorReconFLOPsFor is the reconstruction's multiply-add cost for p
// parties' factors of one shape: per entry one B×F·D GEMM (2·B·F·D) plus the
// bias column sums — what the virtual clock charges a receiver for turning
// factors back into gradients, and the selector's cost-model term.
func FactorReconFLOPsFor(p, b, f, d int) int64 {
	return int64(p) * (2*int64(b)*int64(f)*int64(d) + int64(b)*int64(f))
}

// DenseAllReduceBytes is the exact total wire a dense fp32 allreduce of
// elems elements moves over p parties: 2·(P−1) model payloads, for *every*
// schedule — tree (P−1 reduce + P−1 broadcast messages of the model), ring
// (two phases of P chunk waves, each totalling (P−1)/P of the model per
// party), recursive halving/doubling (halving + doubling, same total), chain
// and linear alike. It is the quantity FactorAllGatherBytes undercuts when
// B·(F+D) ≪ F·D: the factor allgather moves P/2 × the per-party payload
// ratio more messages but each is the factor pair, not the gradient.
func DenseAllReduceBytes(p, elems int) int64 {
	if p <= 1 {
		return 0
	}
	return 2 * int64(p-1) * 4 * int64(elems)
}

// FactorAllGatherBytes is the exact total wire a factor allgather moves:
// P·(P−1) payloads of 4·elemsPerParty bytes, identical for the ring and
// recursive-doubling patterns.
func FactorAllGatherBytes(p, elemsPerParty int) int64 {
	if p <= 1 {
		return 0
	}
	return int64(p) * int64(p-1) * 4 * int64(elemsPerParty)
}

// AnalyticFactorAllGatherTime is the closed-form α-β prediction of the
// factor allgather over p parties with entryBytes of payload per party:
// (P−1)(α + Sβ) for the ring pattern, Σₖ (α + 2ᵏSβ) for recursive
// doubling. The simulated collective completes at exactly this time on a
// contention-free topology (every step is round-synchronized).
func AnalyticFactorAllGatherTime(s Schedule, l Transferer, entryBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	if factorPatternIsRing(s, p) {
		return float64(p-1) * l.Time(entryBytes)
	}
	var t float64
	for mask := 1; mask < p; mask <<= 1 {
		t += l.Time(int64(mask) * entryBytes)
	}
	return t
}
