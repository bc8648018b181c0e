package main

import (
	"fmt"
	"math"
	"time"

	"scaledl"
	"scaledl/internal/comm"
	"scaledl/internal/data"
	"scaledl/internal/nn"
)

// trainSpec fixes one training workload. Iterations per repetition are
// sized so a repetition is 250-300 host milliseconds: a pass then holds
// 60-70 repetitions, enough for a 75th percentile with ten samples beyond
// it however the host's speed drifts, and the call's fixed cost (building
// the workers' nets, spawning the simulation) stays under a third of it.
type trainSpec struct {
	method      string
	def         func(scaledl.Shape, int) scaledl.NetDef
	workers     int // flat methods; hier uses nodes×gpus
	nodes, gpus int
	batch       int
	iters       int
	lr          float32
	overlap     bool
	bucketBytes int64
	trainN      int
	// sumsToWall marks the coordinated methods, whose Breakdown is charged
	// from one coordinating rank and must sum to the simulated time; the
	// asynchronous family charges per master service and does not.
	sumsToWall bool
	// targetIters caps the time-to-accuracy check run (core.iters_to_target).
	targetIters int
	// simMsPerIter pins the simulated clock: what the cost models gave per
	// iteration when the benchmark was written. It does not depend on the
	// seed, the data or the host; a run that simulates a slower iteration is
	// incorrect.
	simMsPerIter float64
}

var trainSpecs = map[string]trainSpec{
	"train_sync_lenet": {
		method: "sync-easgd3", def: scaledl.LeNet, workers: 4, batch: 32,
		iters: 3, lr: 0.05, trainN: 2048, sumsToWall: true, targetIters: 40, simMsPerIter: 1.9613435333333331,
	},
	"train_async_tiny": {
		method: "async-easgd", def: scaledl.TinyCNN, workers: 8, batch: 8,
		iters: 120, lr: 0.05, trainN: 2048, targetIters: 1200, simMsPerIter: 0.016343366666666647,
	},
	"train_hier_overlap": {
		method: "hier-sync-sgd", def: scaledl.LeNet, nodes: 4, gpus: 4, batch: 2,
		iters: 3, lr: 0.1, overlap: true, bucketBytes: 256 << 10, trainN: 2048, sumsToWall: true, targetIters: 40, simMsPerIter: 2.063588484313725,
	},
}

var mnistShape = scaledl.Shape{C: 1, H: 28, W: 28}

// trainRun is a set-up training workload: generated data, the run
// configuration and the reference values the correctness checks compare to.
type trainRun struct {
	spec        trainSpec
	seed        int64
	cfg         scaledl.Config
	train       *scaledl.Dataset
	synthS      float64 // data generation time inside set-up
	refLossBits uint64  // FinalLoss of the warm-up repetition
	refSimTime  float64
	refIters    int
	unitsPerRep float64
}

func setupTrain(spec trainSpec, seed int64) (*trainRun, error) {
	r := &trainRun{spec: spec, seed: seed}
	t := time.Now()
	train, test := scaledl.SyntheticMNIST(seed, spec.trainN, 64)
	r.synthS = time.Since(t).Seconds()
	r.train = train
	r.cfg = scaledl.Config{
		Def: spec.def(mnistShape, 10), Train: train, Test: test,
		Workers: spec.workers, Nodes: spec.nodes, GPUsPerNode: spec.gpus,
		Batch: spec.batch, LR: spec.lr, Iterations: spec.iters, Seed: seed,
		Overlap: spec.overlap, BucketBytes: spec.bucketBytes,
		Platform: scaledl.DefaultGPUPlatform(true),
	}
	// Warm-up repetition: grows every buffer and fixes the reference loss.
	res, err := scaledl.Train(spec.method, r.cfg)
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	r.refLossBits = math.Float64bits(res.FinalLoss)
	r.refSimTime = res.SimTime
	r.refIters = res.Iterations
	r.unitsPerRep = float64(res.Samples)
	return r, nil
}

func (r *trainRun) workers() int {
	if r.spec.nodes > 0 {
		return r.spec.nodes * r.spec.gpus
	}
	return r.spec.workers
}

func (r *trainRun) close() {}

// rep runs one Train call and checks its outputs: for a coordinated
// method the breakdown sums to the simulated time, and the loss and the
// simulated time are bit-equal to the reference repetition's (same seed,
// same inputs). detail is empty when every check held.
func (r *trainRun) rep() (res scaledl.Result, detail string) {
	res, err := scaledl.Train(r.spec.method, r.cfg)
	if err != nil {
		return res, err.Error()
	}
	if d := math.Abs(res.Breakdown.Total() - res.SimTime); r.spec.sumsToWall && d > 1e-9*math.Max(1, res.SimTime) {
		detail += fmt.Sprintf("breakdown %.12g != sim time %.12g; ", res.Breakdown.Total(), res.SimTime)
	}
	if math.Float64bits(res.FinalLoss) != r.refLossBits || res.SimTime != r.refSimTime {
		detail += fmt.Sprintf("loss %v / sim %v differ from the reference repetition; ", res.FinalLoss, res.SimTime)
	}
	return res, detail
}

// pinned checks the simulated clock of the reference repetition (every
// timed repetition is bit-equal to it) against the pinned value.
func (r *trainRun) pinned(o *outcome) {
	simMs := r.refSimTime / float64(r.refIters) * 1e3
	o.verify("simulated ms per iteration no worse than pinned", simMs <= r.spec.simMsPerIter*(1+1e-9),
		"%.9f vs %.9f sim_ms", simMs, r.spec.simMsPerIter)
}

func (r *trainRun) timed(seconds float64) *outcome {
	o := timedReps(seconds, r.unitsPerRep, func() string {
		_, detail := r.rep()
		return detail
	})
	o.check("every repetition bit-equal to the reference (loss, simulated time)", o.failed == 0, "%d repetitions", o.attempted)
	r.pinned(o)
	r.toTarget(o, &recorder{})
	return o
}

// timedReps is the timed pass of a repetition-based workload: equal
// repetitions until the budget is spent, each one operation.
func timedReps(seconds float64, unitsPerRep float64, rep func() (failure string)) *outcome {
	o := newOutcome()
	var repMs []float64
	m := startMem()
	for time.Since(m.start).Seconds() < seconds || len(repMs) < 3 {
		t := time.Now()
		failure := rep()
		repMs = append(repMs, float64(time.Since(t))/1e6)
		o.op(failure)
	}
	m.stop()
	n := len(repMs)
	units := unitsPerRep * float64(n)
	sorted := sortedCopy(repMs)
	med := percentile(sorted, 50)
	o.set("op_p50_ms", med, n)
	o.set("op_tail_ms", percentile(sorted, tailRung(n)), n)
	o.set("cpu_ms_per_unit", float64(m.CPU)/1e6/units, n)
	o.set("alloc_kb_per_unit", m.Bytes/1024/units, n)
	o.note("%.6g units/s at the median repetition (%g units each); op_tail_ms is p%g of %d", unitsPerRep/(med/1e3), unitsPerRep, tailRung(n), n)
	return o
}

// layerKind maps a layer to the per-kind metric bucket it is timed under.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.Dense:
		return "dense"
	case *nn.Pool2D:
		return "pool"
	case *nn.ReLU, *nn.Tanh, *nn.Sigmoid, *nn.Dropout:
		return "act"
	}
	return "other"
}

// shadowStep is the benchmark's own training step, built from the public
// calls core's workers make (sample, per-layer forward, loss, per-layer
// backward, SGD step), with a span around each so one step decomposes by
// layer without instrumenting the program.
type shadowStep struct {
	net     *nn.Net
	sampler *data.Sampler
	batch   *data.Batch
	loss    nn.SoftmaxXent
	b       int
	lr      float32
	fwd     []string
	bwd     []string
}

func newShadowStep(def nn.NetDef, train *data.Dataset, b int, lr float32, seed int64) *shadowStep {
	s := &shadowStep{net: def.Build(seed), sampler: data.NewSampler(train, seed), b: b, lr: lr}
	for _, l := range s.net.Layers {
		k := layerKind(l)
		s.fwd = append(s.fwd, "nn."+k+".fwd")
		s.bwd = append(s.bwd, "nn."+k+".bwd")
	}
	s.net.ZeroGrad()
	return s
}

func (s *shadowStep) run(rec *recorder, op int) float64 {
	step := rec.begin("step", -1, op)
	sp := rec.begin("data.next", step, op)
	s.batch = s.sampler.Next(s.b, s.batch)
	rec.end(sp)

	f := rec.begin("nn.fwd", step, op)
	cur := s.batch.X
	for i, l := range s.net.Layers {
		sp = rec.begin(s.fwd[i], f, op)
		cur = l.Forward(cur, s.b, true)
		rec.end(sp)
	}
	rec.end(f)

	sp = rec.begin("nn.loss", step, op)
	loss, _ := s.loss.Forward(cur, s.batch.Labels, s.net.Def.Classes)
	dy := s.loss.Grad()
	rec.end(sp)

	bw := rec.begin("nn.bwd", step, op)
	for i := len(s.net.Layers) - 1; i >= 0; i-- {
		sp = rec.begin(s.bwd[i], bw, op)
		dy = s.net.Layers[i].Backward(dy, s.b)
		rec.end(sp)
	}
	rec.end(bw)

	// The optimizer's share: apply the step, clear the gradient for the next.
	sp = rec.begin("nn.sgd", step, op)
	s.net.SGDStep(s.lr)
	s.net.ZeroGrad()
	rec.end(sp)
	rec.end(step)
	return loss
}

// traced is the per-layer pass of a training workload. The budget splits
// between a few measured Train calls (core.*), the spanned shadow step
// (nn.*, data.*), standalone kernel replays (tensor.*, par.*, sim.*), the
// workload's own parameter exchange in a benchmark-owned simulation
// (comm.*) and one time-to-accuracy check run.
func (r *trainRun) traced(seconds float64, rec *recorder) *outcome {
	o := newOutcome()
	budget := shareOf(seconds)
	res, cpuPerIter := r.traceTrainCalls(o, rec, budget(0.25))
	r.pinned(o)
	mono := r.cfg.Def.Build(r.seed)
	shadowCPUms := r.traceShadowStep(o, rec, mono, budget(0.36))

	// Shares of the Train call's CPU: the layers' own work (shadow-step CPU
	// per sample × samples trained) and the parameter exchange replayed
	// below; what is left is core+sim orchestration.
	samplesPerIter := float64(res.Samples) / float64(res.Iterations)
	nnShare := shadowCPUms / float64(r.spec.batch) * samplesPerIter / cpuPerIter
	o.set("core.nn_share", nnShare, 1)
	o.set("core.overhead_share", 1-nnShare, 1)

	probeTensor(o, r.cfg.Def, r.spec.batch, budget(0.08))
	probePar(o, budget(0.01))
	probeSim(o, budget(0.05))
	commCPUms := r.probeComm(o, rec, mono, budget(0.08))
	o.set("core.comm_share", commCPUms/cpuPerIter, 1)

	o.set("core.iters_to_target", r.toTarget(o, rec), 1)
	return o
}

// traceTrainCalls measures Train calls from outside, with allocation, GC
// and CPU deltas around them, and reads the simulated clock's shares
// straight from Result.Breakdown. It returns the last result and the
// call's CPU ms per iteration.
func (r *trainRun) traceTrainCalls(o *outcome, rec *recorder, budget time.Duration) (res scaledl.Result, cpuPerIter float64) {
	var iters, reps float64
	m := startMem()
	for start := time.Now(); time.Since(start) < budget || reps < 2; reps++ {
		root := rec.begin("core.train", -1, int(reps))
		var failure string
		res, failure = r.rep()
		rec.end(root)
		o.op(failure)
		iters += float64(res.Iterations)
	}
	m.stop()
	n := int(reps)
	cpuPerIter = float64(m.CPU) / 1e6 / iters
	o.set("core.host_ms_per_iter", float64(m.Wall)/1e6/iters, n)
	o.set("core.cpu_ms_per_iter", cpuPerIter, n)
	o.set("core.allocs_per_iter", m.Mallocs/iters, n)
	o.set("core.alloc_kb_per_iter", m.Bytes/1024/iters, n)
	o.set("core.gc_pause_ms", m.PauseNs/1e6/reps, n)

	bd := res.Breakdown
	perIter := func(simS float64) float64 { return simS / float64(res.Iterations) * 1e3 }
	o.set("core.sim_ms_per_iter", perIter(res.SimTime), 1)
	o.set("core.fwdbwd_sim_ms_per_iter", perIter(bd.Times[scaledl.CatForwardBackward]), 1)
	o.set("core.update_sim_ms_per_iter", perIter(bd.Times[scaledl.CatGPUUpdate]+bd.Times[scaledl.CatCPUUpdate]), 1)
	o.set("core.data_sim_ms_per_iter", perIter(bd.Times[scaledl.CatCPUGPUData]), 1)
	o.set("core.comm_ratio", bd.CommRatio(), 1)
	o.set("core.final_loss", res.FinalLoss, 1)
	o.set("comm.exposed_ms_per_iter", perIter(bd.Times[scaledl.CatGPUGPUParam]+bd.Times[scaledl.CatCPUGPUParam]), 1)
	o.set("comm.hidden_ms_per_iter", perIter(bd.HiddenComm), 1)
	o.set("comm.bytes_per_iter", float64(bd.ParamTraffic())/float64(res.Iterations), 1)
	if r.spec.sumsToWall {
		var catSum float64
		for _, c := range bd.Times {
			catSum += perIter(c)
		}
		simPerIter := perIter(res.SimTime)
		o.recon("breakdown categories sum to sim_ms_per_iter", math.Abs(catSum-simPerIter) <= 1e-9*math.Max(1, simPerIter),
			"%.9f vs %.9f sim_ms", catSum, simPerIter)
	}
	return res, cpuPerIter
}

// traceShadowStep decomposes one training step by layer. The spanned
// shadow step, the same step with the recorder off and the monolithic
// step (on mono) alternate, so host drift hits all three alike: the first
// two differ by the tracing overhead, and the spanned step's parts must
// add up to the monolithic one. It returns the shadow step's CPU ms.
func (r *trainRun) traceShadowStep(o *outcome, rec *recorder, mono *nn.Net, budget time.Duration) (cpuMs float64) {
	def, b, lr := r.cfg.Def, r.spec.batch, r.spec.lr
	bt := data.NewSampler(r.train, r.seed).Next(b, nil)
	off := &recorder{}
	monoStep := func() (loss float64) {
		mono.ZeroGrad()
		loss, _ = mono.LossAndGrad(bt.X, bt.Labels, b)
		mono.SGDStep(lr)
		return loss
	}
	sh := newShadowStep(def, r.train, b, lr, r.seed)
	// The shadow step must compute what LossAndGrad + SGDStep compute: same
	// seed, so same initial weights and same first batch.
	got, want := sh.run(off, 0), monoStep()
	same := math.Float64bits(got) == math.Float64bits(want)
	for i := range mono.Params {
		same = same && mono.Params[i] == sh.net.Params[i]
	}
	o.verify("shadow step equals LossAndGrad+SGDStep bit for bit", same, "loss %v vs %v", got, want)
	for i := 0; i < 3; i++ {
		sh.run(off, 0) // warm buffers
	}

	steps := 0
	var onNs, offNs, monoNs []float64
	var cpu, mallocs float64
	for start := time.Now(); time.Since(start) < budget || steps < 5; steps++ {
		ms := startMem()
		sh.run(rec, steps)
		onNs = append(onNs, float64(time.Since(ms.start)))
		t := time.Now()
		sh.run(off, 0)
		offNs = append(offNs, float64(time.Since(t)))
		ms.stop()
		cpu += float64(ms.CPU) / 2 // two shadow steps inside ms
		mallocs += ms.Mallocs / 2
		t = time.Now()
		monoStep()
		monoNs = append(monoNs, float64(time.Since(t)))
	}
	tot := rec.totals()
	per := func(name string) float64 { return float64(tot[name].Dur) / float64(steps) }
	fwd, bwd := per("nn.fwd"), per("nn.bwd")
	o.set("nn.fwd_ns", fwd, steps)
	o.set("nn.bwd_ns", bwd, steps)
	o.set("nn.bwd_over_fwd", bwd/fwd, steps)
	for _, k := range []string{"conv", "dense", "pool", "act"} {
		o.set("nn."+k+"_fwd_ns", per("nn."+k+".fwd"), steps)
		o.set("nn."+k+"_bwd_ns", per("nn."+k+".bwd"), steps)
	}
	o.set("nn.loss_ns", per("nn.loss"), steps)
	o.set("nn.sgd_ns", per("nn.sgd"), steps)
	o.set("data.next_ns", per("data.next"), steps)
	o.set("data.synthetic_s", r.synthS, 1)
	o.set("nn.step_allocs", mallocs/float64(steps), steps)
	o.set("bench.trace_overhead_share", median(onNs)/median(offNs)-1, steps)
	stepNs := median(monoNs)
	o.set("nn.step_ns", stepNs, steps)
	o.set("nn.step_gflops", float64(mono.TrainFLOPsPerSample())*float64(b)/stepNs, steps)
	// The layer spans are the children of the nn.fwd / nn.bwd spans, so what
	// they leave uncovered is the parent's self time.
	for _, pass := range []string{"nn.fwd", "nn.bwd"} {
		t := tot[pass]
		o.recon("layer times sum to "+pass+"_ns", float64(t.Self) <= 0.02*float64(t.Dur),
			"self time %.0f of %.0f ns per step", float64(t.Self)/float64(steps), float64(t.Dur)/float64(steps))
	}
	// Medians on both sides; the two nets are separate allocations, and
	// where their buffers landed alone moves a GEMM-bound step by several
	// per cent, hence 10 % and not less.
	parts := median(onNs) - per("data.next")
	o.recon("fwd+loss+bwd+sgd within 10% of nn.step_ns", within(parts, stepNs, 0.10), "%.0f vs %.0f ns", parts, stepNs)
	return cpu / float64(steps) / 1e6
}

// toTarget is the statistical half of the paper's time-to-accuracy claim
// and the check that training trains: one run to 97 % test accuracy, which
// must get there within the cap (over 60 seeds no workload needed more than
// half of it). A repetition is too short to judge learning by: over three
// iterations the loss rises for about one seed in forty. It returns the
// iterations the run took; their number is reported and not gated, because
// a legal change of accumulation order moves it by one probe.
func (r *trainRun) toTarget(o *outcome, rec *recorder) float64 {
	check := r.cfg
	check.EvalEvery, check.TargetAcc, check.Iterations = 5, 0.97, r.spec.targetIters
	if r.spec.method == "async-easgd" {
		check.EvalEvery = 5 * r.workers() // five gradients per worker
	}
	sp := rec.begin("core.train_to_target", -1, 0)
	res, err := scaledl.Train(r.spec.method, check)
	rec.end(sp)
	var last scaledl.Point
	if n := len(res.Curve); err == nil && n > 0 {
		last = res.Curve[n-1]
	}
	ok := last.TestAcc >= check.TargetAcc
	o.verify("training reaches 97% test accuracy within the cap", ok, "accuracy %.3f after %d of at most %d iterations", last.TestAcc, last.Iter, check.Iterations)
	if !ok {
		return 0 // not reached
	}
	return float64(last.Iter)
}

func within(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Abs(b) }

// netPlan returns the packed per-layer message plan DefaultGPUPlatform(true)
// gives the net — what the training methods communicate under.
func netPlan(net *nn.Net) comm.Plan {
	var bytes []int64
	for _, c := range net.LayerParamSizes() {
		bytes = append(bytes, int64(c)*4)
	}
	return comm.Plan{LayerBytes: bytes, Packed: true, GatherBW: 6e9}
}
