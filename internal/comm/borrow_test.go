package comm

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"scaledl/internal/sim"
)

// topoOf digs the topology out from behind an Endpoint, so the contract test
// can install chaos on the engines engineCases builds.
func topoOf(ep *Endpoint) *Topology {
	switch e := ep.e.(type) {
	case *Communicator:
		return e.topo
	case *HierCommunicator:
		return e.topo
	}
	panic("comm: unknown engine")
}

// scribble is the sentinel a rank overwrites its buffer with the instant a
// collective returns: distinct per rank and per element, so a peer that still
// reads the buffer afterwards produces a wrong sum, not a lucky one.
func scribble(buf []float32, rank int) {
	for i := range buf {
		buf[i] = float32(1000*(rank+1) + i%13)
	}
}

// The buffer-reuse contract (MPI semantics): when a collective returns on a
// rank, no other rank holds a reference into that rank's buffer. Every rank
// reads its result and overwrites its whole buffer with a sentinel in the
// same simulated instant its call returns, then issues a second collective
// on the scribbled buffers. Both results must be bit-equal to the oracle —
// ReduceSum over the inputs in rank order, or the root's input — on every
// engine, whole-plan and Range, fault-free and under seeded message loss
// (retries reorder which rank runs first after a barrier, which is what
// exposes a lender released before its bytes were consumed).
func TestBufferReuseContract(t *testing.T) {
	const elems, lo, hi = 203, 37, 171
	const root = 5 // non-zero, and never a group leader hierarchically
	forms := []struct {
		name   string
		kind   opKind
		ranged bool
	}{
		{"AllReduce", opAllReduce, false},
		{"AllReduceRange", opAllReduce, true},
		{"Broadcast", opBroadcast, false},
		{"BroadcastRange", opBroadcast, true},
		{"Reduce", opReduce, false},
	}
	// want is the oracle for one call: what rank's buffer must hold on return
	// given every rank's buffer at entry.
	want := func(kind opKind, in [][]float32, rank, a, b int) []float32 {
		out := append([]float32(nil), in[rank]...)
		switch {
		case kind == opBroadcast:
			copy(out[a:b], in[root][a:b])
		case kind == opAllReduce || rank == root:
			sum := make([]float32, elems)
			ReduceSum(sum, in...)
			copy(out[a:b], sum[a:b])
		}
		return out
	}
	// engineCases plus the degenerate cluster whose fabric communicator has a
	// single party (its lone leader combines without receiving anything).
	cases := append(engineCases(), engineCase{"hier-single-node", 6, func(env *sim.Env, plan Plan) func(int) *Endpoint {
		return hierComm(uniformCluster(env, 1, 6, 0), plan, ScheduleTree, ScheduleTree).Endpoint
	}})
	for _, ec := range cases {
		for _, f := range forms {
			for _, chaos := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/chaos=%v", ec.name, f.name, chaos)
				a, b := 0, elems
				if f.ranged {
					a, b = lo, hi
				}
				first := randInputs(ec.parties, elems, 11)
				second := make([][]float32, ec.parties)
				for r := range second {
					second[r] = make([]float32, elems)
					scribble(second[r], r)
				}
				env := sim.NewEnv()
				endpoint := ec.build(env, packedPlan(elems))
				if chaos {
					topoOf(endpoint(0)).SetChaos(&Chaos{Seed: 1, Loss: 0.2})
				}
				bufs := make([][]float32, ec.parties)
				got := make([][2][]float32, ec.parties)
				for r := range bufs {
					bufs[r] = append([]float32(nil), first[r]...)
				}
				runEndpoints(env, ec.parties, -1, func(p *sim.Proc, rank int) {
					ep := endpoint(rank)
					for round := 0; round < 2; round++ {
						switch {
						case f.kind == opAllReduce && f.ranged:
							ep.AllReduceRange(p, round, bufs[rank], a, b)
						case f.kind == opAllReduce:
							ep.AllReduce(p, round, bufs[rank])
						case f.kind == opBroadcast && f.ranged:
							ep.BroadcastRange(p, round, root, bufs[rank], a, b)
						case f.kind == opBroadcast:
							ep.Broadcast(p, round, root, bufs[rank])
						default:
							ep.Reduce(p, round, root, bufs[rank])
						}
						got[rank][round] = append([]float32(nil), bufs[rank]...)
						scribble(bufs[rank], rank)
					}
				})
				for r := 0; r < ec.parties; r++ {
					for round, in := range [][][]float32{first, second} {
						w := want(f.kind, in, r, a, b)
						for i := range w {
							if math.Float32bits(got[r][round][i]) != math.Float32bits(w[i]) {
								t.Errorf("%s: call %d rank %d elem %d = %v, want %v",
									name, round, r, i, got[r][round][i], w[i])
								break
							}
						}
					}
				}
			}
		}
	}
}

// A payload collective borrows the callers' buffers instead of copying them:
// beyond the buffers the callers own, one 8-party allreduce of a 1M-element
// vector may allocate at most a quarter of the P·n·4 bytes it moves (the
// ordered-sum scratch plus bookkeeping; copying every contribution and every
// broadcast hop cost about twice P·n·4).
func TestAllReducePayloadAllocationBudget(t *testing.T) {
	const parties, elems = 8, 1 << 20
	inputs := randInputs(parties, elems, 5)
	for _, sched := range []Schedule{ScheduleTree, ScheduleRing, ScheduleRHD} {
		bufs := make([][]float32, parties)
		for i := range bufs {
			bufs[i] = append([]float32(nil), inputs[i]...)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env := sim.NewEnv()
		topo := NewUniform(env, parties, testLink)
		c := NewCommunicator(topo, CommConfig{Parties: Ranks(parties), Plan: packedPlan(elems), Schedule: sched})
		runCollective(t, topo, c, func(p *sim.Proc, rank int) {
			c.Endpoint(rank).AllReduce(p, 0, bufs[rank])
		})
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if budget := uint64(parties * elems * 4 / 4); got > budget {
			t.Errorf("%v: allreduce allocated %d bytes beyond the callers' buffers, budget %d", sched, got, budget)
		}
	}
}
