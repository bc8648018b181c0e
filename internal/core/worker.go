package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/data"
	"scaledl/internal/nn"
	"scaledl/internal/par"
	"scaledl/internal/quant"
	"scaledl/internal/tensor"
)

// worker is the per-device training state shared by all algorithms: a full
// replica of the network (data parallelism), a private batch sampler, and
// an optional momentum buffer.
type worker struct {
	id        int
	net       *nn.Net
	sampler   *data.Sampler
	batch     *data.Batch
	batchSize int
	velocity  []float32 // momentum buffer (lazily used)

	computeTime float64 // modeled seconds per forward+backward of one batch
	dataBytes   int64   // bytes of one minibatch copy
	lastLoss    float64

	// recordEvents makes gradientMath capture the backward walk's per-layer
	// gradient-ready stream into events (reused across iterations) — set by
	// streamPlan.walk, whose bucket launches replay the real emission order.
	recordEvents bool
	events       []nn.GradEvent
}

// runContext bundles everything an algorithm run needs: workers, timing
// constants derived from the platform, the center weight, and bookkeeping.
type runContext struct {
	cfg     Config
	workers []*worker
	center  []float32 // W̄, the center (global) weight
	// probe is the scratch net of the accuracy probes: the Xavier-initialized
	// model the workers were copied from, reloaded with the center each time.
	// (The trained model handed out at the end is a fresh replica, not this
	// net: Results compare deeply equal across runs and pool widths, which a
	// net that has run a forward — cached closures, width-sized chunk views —
	// does not.)
	probe *nn.Net
	plan  comm.Plan

	paramBytes int64
	// commSel holds the hybrid-communication selector's per-layer transport
	// decisions when cfg.CommMode is sfb or hybrid (nil in dense mode); the
	// allreduce methods route each plan segment by it (see hybrid.go and
	// gradRow).
	commSel *HybridSelector
	// layerFlops holds the per-layer forward FLOP counts of the model and
	// paramLayers the nn layer index of each plan segment (the parameter
	// layers, in order) — the inputs of the streaming pipeline's
	// gradient-ready schedule (stream.go).
	layerFlops  []int64
	paramLayers []int
	// Modeled cost of one minibatch CPU→GPU copy. Parameter transfers are
	// not precomputed: they run as simulated messages over the comm
	// topology, paying per-segment wire costs where the bytes move.
	dataXfer float64
	// Modeled cost of the elementwise updates.
	workerUpdate float64 // Eq. (1) on the worker device
	masterUpdate float64 // Eq. (2) on the master device

	// prevPrec is the GEMM compute precision that was active before this
	// run set cfg.ComputePrec; finish restores it.
	prevPrec tensor.Precision

	// faultsOn gates the per-step fault hooks; ckptTime is the modeled cost
	// of writing or reloading one model checkpoint over the data link.
	faultsOn bool
	ckptTime float64

	updates int64 // master-side updates performed
	samples int64 // training samples consumed
	stopped bool  // TargetAcc reached
	curve   []Point
	bd      Breakdown

	// Semantic-fault bookkeeping. droppedWait accumulates rank 0's
	// partial-aggregation deadline time (sampled into CatDropped by the
	// worker loop so the comm category is not double-charged); dropped is
	// the per-step drop log; failedRank is the rank killed by a
	// FailContinue fail-stop, or -1.
	droppedWait float64
	dropped     []DropRecord
	failedRank  int
}

// newRunContext validates cfg for method, builds P workers with private seeds, and
// precomputes the platform's per-operation costs. Callers must use rc.cfg
// from here on: Validate fills in defaults (such as ρ) that the caller's
// copy does not have.
func newRunContext(method string, cfg Config) (*runContext, error) {
	// Validation and the method × knob support table run before anything
	// global is touched: a refused config leaves no trace.
	if err := cfg.validateFor(method); err != nil {
		return nil, err
	}
	rc := &runContext{cfg: cfg, failedRank: -1}
	// Apply the run's compute precision to the GEMM engine; finish restores
	// the previous setting so runs do not leak it into each other.
	prec, err := tensor.ParsePrecision(cfg.ComputePrec)
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	rc.prevPrec = tensor.SetComputePrecision(prec)
	base := tensor.NewRNG(cfg.Seed)
	// One shared initial model, copied to every worker (Algorithms 1-4:
	// initialize W once, copy to all) — the only net of the run that draws
	// weights.
	init := cfg.Def.Build(base.Int63())
	rc.center = append([]float32(nil), init.Params...)
	rc.probe = init
	rc.paramBytes = init.ParamBytes()
	rc.plan = cfg.Platform.plan(init.LayerParamSizes())
	for i, l := range init.Layers {
		rc.layerFlops = append(rc.layerFlops, l.FwdFLOPsPerSample())
		if l.ParamCount() > 0 {
			rc.paramLayers = append(rc.paramLayers, i)
		}
	}
	if cfg.CommMode != CommDense {
		rc.commSel = selectCommModes(cfg, init.Layers)
	}

	flopsPerBatch := init.TrainFLOPsPerSample() * int64(cfg.Batch)
	// Activations + weights streamed per batch, a rough working-set touch.
	bytesTouched := init.ParamBytes()*3 + int64(cfg.Batch)*int64(cfg.Def.In.Dim())*4

	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:        i,
			net:       cfg.Def.Replica(rc.center, base.Int63()),
			sampler:   data.NewSampler(cfg.Train, base.Int63()),
			batchSize: cfg.Batch,
		}
		w.computeTime = cfg.Platform.Worker.ComputeTime(flopsPerBatch, bytesTouched)
		w.dataBytes = int64(cfg.Batch) * cfg.Train.Spec.SampleBytes()
		rc.workers = append(rc.workers, w)
	}

	dataLink := cfg.Platform.link("data", cfg.Platform.Data)
	rc.dataXfer = dataLink.Time(rc.workers[0].dataBytes)
	// Elementwise updates stream ~3 vectors of the model (read W, read
	// other, write W): 2 flops and 12 bytes per parameter.
	n := int64(len(rc.center))
	rc.workerUpdate = cfg.Platform.Worker.ComputeTime(2*n, 12*n)
	rc.masterUpdate = cfg.Platform.Master.ComputeTime(2*n, 12*n)
	rc.faultsOn = cfg.Faults.enabled()
	if rc.faultsOn {
		rc.ckptTime = dataLink.Time(rc.paramBytes)
	}
	return rc, nil
}

// gradientMath is the raw forward+backward; it touches only worker-owned
// state (net, sampler, batch, events) and defers the lastLoss commit to the
// caller, so it may run on a par pool goroutine while the owning simulated
// process is suspended. With recordEvents set it runs the streaming walk
// and captures the real gradient-ready event sequence; the mathematics is
// identical either way (LossAndGrad is the emit=nil wrapper).
func (w *worker) gradientMath() float64 {
	w.batch = w.sampler.Next(w.batchSize, w.batch)
	w.net.ZeroGrad()
	var loss float64
	if w.recordEvents {
		w.events = w.events[:0]
		loss, _ = w.net.LossAndGradStream(w.batch.X, w.batch.Labels, w.batch.B, func(e nn.GradEvent) {
			w.events = append(w.events, e)
		})
	} else {
		loss, _ = w.net.LossAndGrad(w.batch.X, w.batch.Labels, w.batch.B)
	}
	return loss
}

// beginGradient starts the worker's forward/backward on the shared par pool
// and returns a join function. Every algorithm runs its workers as separate
// simulated processes; each calls this, then yields virtual time
// (p.Delay(w.computeTime)) — during which its peers start their own
// gradients, so the real math of up to par.Width() workers overlaps — and
// invokes the join before the gradient or loss is used. The
// join commits w.lastLoss and returns the batch loss; until then no other
// simulated process may read this worker's state (none does: workers own
// their nets and samplers, and masters see only explicit message payloads).
func (w *worker) beginGradient() func() float64 {
	var loss float64
	h := par.Submit(func() { loss = w.gradientMath() })
	return func() float64 {
		h.Wait()
		w.lastLoss = loss
		return loss
	}
}

// snapshot fills dst with src as its receiver will see it — the delta codec's
// reconstruction when codec is non-nil, a raw fp32 copy otherwise — and
// returns the wire size. It is the single payload-preparation path of every
// weight stream (EASGD-style uploads, round-robin pulls, center replies).
func snapshot(codec *quant.DeltaCodec, src, dst []float32) int64 {
	if codec != nil {
		return codec.Encode(src, dst)
	}
	copy(dst, src)
	return int64(len(dst)) * 4
}

// perWorker builds one compression codec per worker stream (error-feedback
// quantizers for gradient streams, delta codecs for weight streams); the
// entries stay nil — raw fp32 — when the run is uncompressed.
func perWorker[T any](cfg Config, mk func(quant.Scheme, int) *T, n int) []*T {
	s := make([]*T, cfg.Workers)
	for i := range s {
		if cfg.Compression != quant.None {
			s[i] = mk(cfg.Compression, n)
		}
	}
	return s
}

// quantizeGrads applies the error-feedback quantizer in place (when q is
// non-nil) and returns the gradient payload's wire size — the shared
// preparation step of the gradient-shipping paths.
func (w *worker) quantizeGrads(q *quant.Quantizer) int64 {
	if q != nil {
		return q.Apply(w.net.Grads, w.net.Grads)
	}
	return int64(len(w.net.Grads)) * 4
}

// elasticLocal applies the paper's Equation (1):
// W_i ← W_i − η(∆W_i + ρ(W_i − W̄)).
func (w *worker) elasticLocal(lr, rho float32, center []float32) {
	p := w.net.Params
	g := w.net.Grads
	for i := range p {
		p[i] -= lr * (g[i] + rho*(p[i]-center[i]))
	}
}

// momentumElasticLocal applies Equations (5) and (6):
// V ← µV − η∆W;  W ← W + V − ηρ(W − W̄).
func (w *worker) momentumElasticLocal(lr, mu, rho float32, center []float32) {
	if w.velocity == nil {
		w.velocity = make([]float32, len(w.net.Params))
	}
	p := w.net.Params
	g := w.net.Grads
	v := w.velocity
	for i := range p {
		v[i] = mu*v[i] - lr*g[i]
		p[i] += v[i] - lr*rho*(p[i]-center[i])
	}
}

// centerElasticUpdate applies the paper's Equation (2) for one worker
// contribution: W̄ ← W̄ + ηρ(W_i − W̄), reading W_i from wParams and the
// center snapshot from snap (which may alias center for the locked
// algorithms; Hogwild passes an older snapshot to model the race).
func centerElasticUpdate(center, wParams, snap []float32, lr, rho float32) {
	a := lr * rho
	for i := range center {
		center[i] += a * (wParams[i] - snap[i])
	}
}

// recordPoint probes test accuracy with the current center weights (callers
// gate on Config.EvalEvery) and raises rc.stopped once the run's accuracy
// target has been met.
func (rc *runContext) recordPoint(iter int, simTime float64, loss float64) {
	acc := rc.evalCenter()
	rc.curve = append(rc.curve, Point{
		Iter:    iter,
		SimTime: simTime,
		Loss:    loss,
		TestAcc: acc,
	})
	if rc.cfg.TargetAcc > 0 && acc >= rc.cfg.TargetAcc {
		rc.stopped = true
	}
}

// evalCenter evaluates the center weight on the test set (0 if none).
func (rc *runContext) evalCenter() float64 {
	if rc.cfg.Test == nil || rc.cfg.Test.Len() == 0 {
		return 0
	}
	copy(rc.probe.Params, rc.center)
	return rc.probe.Evaluate(rc.cfg.Test.Images, rc.cfg.Test.Labels, rc.cfg.EvalBatch)
}

// finish assembles the Result common to all algorithms. A worker killed by
// a FailContinue fail-stop is excluded from the final-loss average — its
// last loss is frozen at the step before its death.
func (rc *runContext) finish(method string, simTime float64) Result {
	tensor.SetComputePrecision(rc.prevPrec)
	var lastLoss float64
	live := 0
	for _, w := range rc.workers {
		if w.id == rc.failedRank {
			continue
		}
		lastLoss += w.lastLoss
		live++
	}
	lastLoss /= float64(live)
	return Result{
		Method:        method,
		Workers:       rc.cfg.Workers,
		Iterations:    rc.cfg.Iterations,
		SimTime:       simTime,
		Breakdown:     rc.bd,
		FinalAcc:      rc.evalCenter(),
		FinalLoss:     lastLoss,
		Curve:         rc.curve,
		Samples:       rc.samples,
		MasterUpdates: rc.updates,
		Dropped:       rc.dropped,
		net:           rc.cfg.Def.Replica(rc.center, 0),
	}
}
