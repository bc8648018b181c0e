package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"scaledl"
	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/hw"
	"scaledl/internal/sim"
)

// sweepOp is one simulated collective of the scale sweep: no real math,
// only the event kernel and the size-only message schedules.
type sweepOp struct {
	name   string
	count  int     // how many times one repetition runs it
	oracle float64 // closed-form simulated seconds it must equal
	run    func() (simS float64, events int64)
}

const (
	sweepHierNodes = 32
	sweepHierGPUs  = 32
	sweepHierBytes = 4 << 20
	sweepFlatP     = 256
	sweepKNLIters  = 10
	sweepKNLComp   = 0.5
	// sweepSimMs pins the simulated clock: Σ simulated ms over one
	// repetition's op mix when the benchmark was written. A run whose
	// collectives simulate slower is incorrect.
	sweepSimMs = 33328.5192890666
)

// sweepOps builds the repetition's op mix: the P=1024 hierarchical
// allreduce (tree inside 32-GPU nodes, recursive halving/doubling between
// them), flat P=256 allreduces of an AlexNet-sized model on Aries under
// three schedules, and the KNL-cluster weak-scaling wave of Algorithm 4.
func sweepOps() []sweepOp {
	alexBytes := scaledl.AlexNetCost().ParamBytes()
	googBytes := scaledl.GoogleNetCost().ParamBytes()
	hierOracle, _ := comm.HierAllReduceTime(hw.GPUPeer, hw.MellanoxFDR, sweepHierBytes,
		sweepHierNodes, sweepHierGPUs, comm.ScheduleTree, comm.ScheduleRHD)
	ops := []sweepOp{{
		name: "hier1024", count: 8, oracle: hierOracle,
		run: func() (float64, int64) {
			env := sim.NewEnv()
			defer env.Close()
			ml := comm.NewMultiLevel(env, comm.MultiLevelConfig{
				Nodes:   sweepHierNodes,
				PerNode: func(env *sim.Env, node int) *comm.Topology { return comm.NewUniform(env, sweepHierGPUs, hw.GPUPeer) },
				Fabric:  hw.MellanoxFDR,
			})
			hc := comm.NewHierCommunicator(ml.Topology(), comm.HierConfig{
				Groups: ml.Groups(comm.Ranks(sweepHierGPUs)...),
				Plan:   comm.Plan{LayerBytes: []int64{sweepHierBytes}, Packed: true},
				Intra:  comm.ScheduleTree,
				Inter:  comm.ScheduleRHD,
			})
			for r := 0; r < hc.Size(); r++ {
				ep := hc.Endpoint(r)
				env.Spawn("rank", func(p *sim.Proc) { ep.AllReduceSize(p, 0) })
			}
			end := env.Run()
			return end, env.Events()
		},
	}}
	for _, f := range []struct {
		name  string
		sched comm.Schedule
		count int
	}{{"tree256", comm.ScheduleTree, 2}, {"rhd256", comm.ScheduleRHD, 2}, {"ring256", comm.ScheduleRing, 1}} {
		f := f
		oracle, _ := f.sched.AnalyticAllReduceTime(hw.Aries, alexBytes, sweepFlatP)
		ops = append(ops, sweepOp{
			name: f.name, count: f.count, oracle: oracle,
			run: func() (float64, int64) {
				env := sim.NewEnv()
				defer env.Close()
				topo := comm.NewUniform(env, sweepFlatP, hw.Aries)
				cm := comm.NewCommunicator(topo, comm.CommConfig{
					Parties:  comm.Ranks(sweepFlatP),
					Plan:     comm.Plan{LayerBytes: []int64{alexBytes}, Packed: true},
					Schedule: f.sched,
				})
				for r := 0; r < sweepFlatP; r++ {
					ep := cm.Endpoint(r)
					env.Spawn("rank", func(p *sim.Proc) { ep.AllReduceSize(p, 0) })
				}
				end := env.Run()
				return end, env.Events()
			},
		})
	}
	bcast, _ := comm.ScheduleTree.AnalyticBroadcastTime(hw.Aries, googBytes, sweepFlatP)
	reduce, _ := comm.ScheduleTree.AnalyticReduceTime(hw.Aries, googBytes, sweepFlatP)
	ops = append(ops, sweepOp{
		name: "knlws256", count: 1, oracle: sweepKNLComp + bcast + reduce,
		run: func() (float64, int64) {
			perIter, err := core.KNLClusterWeakScaling(sweepFlatP, googBytes, sweepKNLComp, hw.Aries, sweepKNLIters)
			if err != nil {
				panic(err)
			}
			return perIter, 0 // the rank program owns its environment; no event count
		},
	})
	return ops
}

// sweepRun is the set-up sweep workload: the op mix, a seeded order to run
// it in, and per-op reference values (events, simulated time) fixed by the
// warm-up repetition.
type sweepRun struct {
	ops       []sweepOp
	order     []int // indices into ops, one entry per collective of a repetition
	refEvents []int64
	refSim    []float64
	simMs     float64 // Σ simulated ms over one repetition
	maxRelErr float64
}

func setupSweep(seed int64) (*sweepRun, error) {
	s := &sweepRun{ops: sweepOps()}
	for i, op := range s.ops {
		for c := 0; c < op.count; c++ {
			s.order = append(s.order, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(s.order), func(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] })
	s.refEvents = make([]int64, len(s.ops))
	s.refSim = make([]float64, len(s.ops))
	for i, op := range s.ops {
		s.refSim[i], s.refEvents[i] = op.run()
		s.simMs += s.refSim[i] * 1e3 * float64(op.count)
		rel := math.Abs(s.refSim[i]-op.oracle) / op.oracle
		s.maxRelErr = math.Max(s.maxRelErr, rel)
	}
	if failure := s.rep(&recorder{}, 0); failure != "" { // warm-up repetition
		return nil, fmt.Errorf("warm-up repetition: %s", failure)
	}
	return s, nil
}

func (s *sweepRun) close() {}

// rep runs the op mix once, a span around each collective (a recorder
// that is off records none), and checks every collective: simulated time
// equals the closed-form oracle to 1e-9 and, with the event count, repeats
// the reference exactly.
func (s *sweepRun) rep(rec *recorder, op int) (failure string) {
	root := rec.begin("sweep.rep", -1, op)
	for _, i := range s.order {
		o := s.ops[i]
		sp := rec.begin("comm."+o.name, root, op)
		simS, events := o.run()
		rec.end(sp)
		if math.Abs(simS-o.oracle) > 1e-9*o.oracle {
			failure += fmt.Sprintf("%s simulated %.12g s, oracle %.12g s; ", o.name, simS, o.oracle)
		}
		if simS != s.refSim[i] || events != s.refEvents[i] {
			failure += fmt.Sprintf("%s did not repeat: %v s / %d events vs %v s / %d; ", o.name, simS, events, s.refSim[i], s.refEvents[i])
		}
	}
	rec.end(root)
	return failure
}

func (s *sweepRun) timed(seconds float64) *outcome {
	o := timedReps(seconds, float64(len(s.order)), func() string { return s.rep(&recorder{}, 0) })
	o.check("every collective equals its closed form to 1e-9 and repeats exactly", o.failed == 0,
		"%d repetitions of %d collectives", o.attempted, len(s.order))
	s.pinned(o)
	return o
}

func (s *sweepRun) pinned(o *outcome) {
	o.verify("simulated ms per sweep no worse than pinned", s.simMs <= sweepSimMs*(1+1e-9), "%.9f vs %.9f sim_ms", s.simMs, float64(sweepSimMs))
}

// traced times every op class on its own and the bare event kernel; the
// nn, tensor, data and serve layers are idle on this workload.
func (s *sweepRun) traced(seconds float64, rec *recorder) *outcome {
	o := newOutcome()
	budget := shareOf(seconds)
	reps := 0
	var traced []float64
	for start := time.Now(); time.Since(start) < budget(0.35) || reps < 2; reps++ {
		t := time.Now()
		failure := s.rep(rec, reps)
		traced = append(traced, float64(time.Since(t)))
		o.op(failure)
	}
	var plain []float64
	for start := time.Now(); time.Since(start) < budget(0.2) || len(plain) < 2; {
		t := time.Now()
		s.rep(&recorder{}, 0)
		plain = append(plain, float64(time.Since(t)))
	}
	o.set("bench.trace_overhead_share", median(traced)/median(plain)-1, reps)
	tot := rec.totals()
	for i, op := range s.ops {
		t := tot["comm."+op.name]
		hostUs := float64(t.Dur) / 1e3 / float64(t.N)
		o.set("comm."+op.name+"_host_us", hostUs, t.N)
		if op.name == "hier1024" {
			o.set("comm.hier1024_sim_ms", s.refSim[i]*1e3, 1)
			o.set("sim.events_per_op", float64(s.refEvents[i]), 1)
			o.set("sim.host_ns_per_event", hostUs*1e3/float64(s.refEvents[i]), t.N)
		}
	}
	o.set("comm.oracle_max_rel_err", s.maxRelErr, len(s.ops))
	o.set("comm.sim_ms_per_sweep", s.simMs, 1)
	s.pinned(o)
	probeSim(o, budget(0.25))
	probePar(o, budget(0.02))
	return o
}
