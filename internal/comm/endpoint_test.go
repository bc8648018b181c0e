package comm

import (
	"fmt"
	"strings"
	"testing"

	"scaledl/internal/sim"
)

// engineCase builds one engine behind the single Endpoint type: a flat
// communicator under one schedule, or a two-level composition.
type engineCase struct {
	name    string
	parties int
	build   func(env *sim.Env, plan Plan) func(rank int) *Endpoint
}

func engineCases() []engineCase {
	var cases []engineCase
	for _, sched := range []Schedule{ScheduleTree, ScheduleRing, ScheduleRHD, ScheduleChain, ScheduleLinear} {
		sched := sched
		cases = append(cases, engineCase{"flat-" + sched.String(), 8, func(env *sim.Env, plan Plan) func(int) *Endpoint {
			topo := NewUniform(env, 8, testLink)
			return NewCommunicator(topo, CommConfig{Parties: Ranks(8), Plan: plan, Schedule: sched, ChunkElems: 16}).Endpoint
		}})
	}
	for _, pair := range [][2]Schedule{{ScheduleTree, ScheduleRHD}, {ScheduleRing, ScheduleTree}} {
		pair := pair
		cases = append(cases, engineCase{"hier-" + pair[0].String() + "-" + pair[1].String(), 12, func(env *sim.Env, plan Plan) func(int) *Endpoint {
			return hierComm(uniformCluster(env, 4, 3, 0), plan, pair[0], pair[1]).Endpoint
		}})
	}
	return cases
}

// runEndpoints spawns one process per live party and returns the simulated
// completion time and the event count.
func runEndpoints(env *sim.Env, parties int, skip int, body func(p *sim.Proc, rank int)) (float64, int64) {
	for r := 0; r < parties; r++ {
		if r == skip {
			continue
		}
		rank := r
		env.Spawn(fmt.Sprintf("party%d", rank), func(p *sim.Proc) { body(p, rank) })
	}
	end := env.Run()
	events := env.Events()
	env.Close()
	return end, events
}

// issue calls one of the nine dense collective forms: kind × {whole, Range}
// through the payload method (buf may be nil), or the whole-plan Size method.
func issue(ep *Endpoint, p *sim.Proc, kind opKind, ranged, sizeForm bool, root int, buf []float32, lo, hi int) {
	switch {
	case ranged && kind == opAllReduce:
		ep.AllReduceRange(p, 0, buf, lo, hi)
	case ranged && kind == opBroadcast:
		ep.BroadcastRange(p, 0, root, buf, lo, hi)
	case ranged:
		ep.ReduceRange(p, 0, root, buf, lo, hi)
	case sizeForm && kind == opAllReduce:
		ep.AllReduceSize(p, 0)
	case sizeForm && kind == opBroadcast:
		ep.BroadcastSize(p, 0, root)
	case sizeForm:
		ep.ReduceSize(p, 0, root)
	case kind == opAllReduce:
		ep.AllReduce(p, 0, buf)
	case kind == opBroadcast:
		ep.Broadcast(p, 0, root, buf)
	default:
		ep.Reduce(p, 0, root, buf)
	}
}

// One table for the one runner: for every engine × kind × form, the payload
// call, the nil-buffer call and the Size call walk the same schedule — same
// simulated instant, same event count — on packed and per-layer plans, and
// the per-layer plan's gather staging is charged exactly once, pro rata to
// the bytes a Range moves. Root 4 is non-zero everywhere and a non-leader
// (group 1, local 1) on the hierarchical engines. The flat nil-buffer rows
// panicked before the collectives shared one validator.
func TestEndpointRunnerTable(t *testing.T) {
	const elems, root, lo, hi = 120, 4, 17, 93
	const gatherBW = 1e6
	plans := []struct {
		name string
		plan Plan
	}{
		{"packed", packedPlan(elems)},
		{"per-layer", Plan{LayerBytes: []int64{40 * 4, 24 * 4, 56 * 4}, GatherBW: gatherBW}},
	}
	kinds := []struct {
		name string
		kind opKind
	}{{"allreduce", opAllReduce}, {"broadcast", opBroadcast}, {"reduce", opReduce}}
	for _, ec := range engineCases() {
		for _, pl := range plans {
			for _, k := range kinds {
				for _, ranged := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/ranged=%v", ec.name, pl.name, k.name, ranged)
					run := func(plan Plan, payload, sizeForm bool) (float64, int64) {
						env := sim.NewEnv()
						endpoint := ec.build(env, plan)
						return runEndpoints(env, ec.parties, -1, func(p *sim.Proc, rank int) {
							var buf []float32
							if payload {
								buf = make([]float32, elems)
							}
							issue(endpoint(rank), p, k.kind, ranged, sizeForm, root, buf, lo, hi)
						})
					}
					end, events := run(pl.plan, true, false)
					if end <= 0 {
						t.Errorf("%s: payload call finished at %v", name, end)
					}
					if e, n := run(pl.plan, false, false); e != end || n != events {
						t.Errorf("%s: nil buffer finished at %v after %d events, payload at %v after %d", name, e, n, end, events)
					}
					if !ranged {
						if e, n := run(pl.plan, false, true); e != end || n != events {
							t.Errorf("%s: Size form finished at %v after %d events, payload at %v after %d", name, e, n, end, events)
						}
					}
					if pl.plan.GatherBW > 0 {
						free := pl.plan
						free.GatherBW = 0
						unstaged, _ := run(free, false, false)
						want := float64(elems*4) / gatherBW
						if ranged {
							want = float64((hi-lo)*4) / gatherBW
						}
						if relErr(end-unstaged, want) > 1e-9 {
							t.Errorf("%s: staging exposed %v, want %v", name, end-unstaged, want)
						}
					}
				}
			}
		}
	}
}

// The single delegate: after MarkDead a rooted collective issued through the
// ORIGINAL endpoints remaps a non-zero root into the survivor engine, and the
// run matches — values at the root bit for bit, completion instant — a
// communicator built fresh over the P−1 live parties.
func TestEndpointDelegateRemapsRoot(t *testing.T) {
	// Six parties (hierarchically 2 nodes × 3); rank 1 — group 0's local 1 —
	// dies, and root 4 — group 1's non-leader local 1 — becomes survivor 3.
	const elems, parties, dead, root, liveRoot = 48, 6, 1, 4, 3
	live := []int{0, 2, 3, 4, 5}
	cases := []struct {
		name         string
		build, fresh func(env *sim.Env) func(rank int) *Endpoint
	}{
		{
			name: "flat",
			build: func(env *sim.Env) func(int) *Endpoint {
				return NewCommunicator(NewUniform(env, parties, testLink), CommConfig{Parties: Ranks(parties), Plan: packedPlan(elems)}).Endpoint
			},
			fresh: func(env *sim.Env) func(int) *Endpoint {
				return NewCommunicator(NewUniform(env, parties, testLink), CommConfig{Parties: live, Plan: packedPlan(elems), RankTags: live}).Endpoint
			},
		},
		{
			name: "hier",
			build: func(env *sim.Env) func(int) *Endpoint {
				return hierComm(uniformCluster(env, 2, 3, 0), packedPlan(elems), ScheduleTree, ScheduleRHD).Endpoint
			},
			fresh: func(env *sim.Env) func(int) *Endpoint {
				ml := uniformCluster(env, 2, 3, 0)
				return NewHierCommunicator(ml.Topology(), HierConfig{
					Groups:    [][]int{{ml.GlobalID(0, 0), ml.GlobalID(0, 2)}, ml.Group(1, 0, 1, 2)},
					GroupTags: [][]int{{0, 2}, {3, 4, 5}},
					Plan:      packedPlan(elems),
					Intra:     ScheduleTree,
					Inter:     ScheduleRHD,
				}).Endpoint
			},
		},
	}
	for _, tc := range cases {
		inputs := randInputs(parties, elems, 31)
		clone := func() [][]float32 {
			bufs := make([][]float32, parties)
			for i := range bufs {
				bufs[i] = append([]float32(nil), inputs[i]...)
			}
			return bufs
		}
		env := sim.NewEnv()
		endpoint := tc.build(env)
		got := clone()
		gotEnd, _ := runEndpoints(env, parties, dead, func(p *sim.Proc, rank int) {
			ep := endpoint(rank)
			ep.MarkDead(dead)
			ep.Reduce(p, 1, root, got[rank])
		})
		env = sim.NewEnv()
		fresh := tc.fresh(env)
		want := clone()
		for sub, orig := range live {
			sub, orig := sub, orig
			env.Spawn(fmt.Sprintf("party%d", orig), func(p *sim.Proc) {
				fresh(sub).Reduce(p, 1, liveRoot, want[orig])
			})
		}
		wantEnd := env.Run()
		env.Close()
		if gotEnd != wantEnd {
			t.Errorf("%s: survivor reduce finished at %v, fresh %d-party reduce at %v", tc.name, gotEnd, len(live), wantEnd)
		}
		for i := range want[root] {
			if got[root][i] != want[root][i] {
				t.Fatalf("%s: root elem %d: %v, fresh %v", tc.name, i, got[root][i], want[root][i])
			}
		}
		var liveIn [][]float32
		for _, r := range live {
			liveIn = append(liveIn, inputs[r])
		}
		sum := make([]float32, elems)
		ReduceSum(sum, liveIn...)
		for i := range sum {
			if got[root][i] != sum[i] {
				t.Fatalf("%s: root elem %d: %v, rank-ordered sum %v", tc.name, i, got[root][i], sum[i])
			}
		}
	}
}

// With one handle type FactorAllGatherSize is expressible on a hierarchical
// endpoint; no size-only two-level factor path exists, and the call says so
// instead of growing one.
func TestHierFactorAllGatherSizeUnsupported(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	ep := hierComm(uniformCluster(env, 2, 2, 0), packedPlan(8), ScheduleTree, ScheduleTree).Endpoint(0)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "FactorAllGatherSize") || !strings.Contains(msg, "hierarchical") {
			t.Errorf("hierarchical FactorAllGatherSize: recovered %q, want a panic naming the unsupported combination", msg)
		}
	}()
	ep.FactorAllGatherSize(nil, 0, 16)
}
