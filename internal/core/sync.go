package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/nn"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
)

// The synchronous family. Each round, all P workers compute gradients in
// parallel on their own replicas and data; the center weight is combined by
// tree collectives in Θ(log P)(α + |W|β) instead of the round-robin's
// Θ(P)(α + |W|β). The three Sync EASGD versions are the paper's §6.1
// co-design steps:
//
//	Sync EASGD1 (Algorithm 2): center on the CPU; packed pinned transfers and
//	  a tree reduction replace P ordered exchanges.
//	Sync EASGD2 (Algorithm 3): center moves to GPU1; parameter traffic rides
//	  GPU↔GPU peer DMA through the PCIe switch, removing host staging.
//	Sync EASGD3 (Algorithm 3 + overlap): the broadcast of W̄ streams through
//	  the bucketed pipeline (stream.go) — per-bucket message waves forked
//	  beneath the data copy + forward/backward, bounded in-flight — and
//	  only the excess is exposed at the join. This is the paper's
//	  "Communication-Efficient EASGD", with its overlap emerging from the
//	  streaming machinery rather than a single hand-built fork.
//
// Every worker runs as its own simulated process, and the collectives are
// executed by the message-level engine in internal/comm: a broadcast is
// log2(P) synchronized waves of real point-to-point messages over the PCIe
// topology, a reduction carries the workers' actual weight segments to the
// root, and the packed-versus-per-layer gap (Figure 10) emerges from the
// per-message α each layer of an unpacked plan pays. No collective is
// charged as a precomputed scalar delay.
//
// SyncSGD is classic synchronous data parallelism (gradient allreduce),
// used by Figure 10's packed-vs-unpacked comparison; its allreduce
// schedule (tree, ring, recursive halving/doubling, pipelined chain,
// linear) is selected by Config.Schedule.

// SyncEASGD1 runs Algorithm 2 (tree reduction, CPU-resident center).
func SyncEASGD1(cfg Config) (Result, error) {
	return runSyncEASGD(cfg, "sync-easgd1", syncOpts{master: masterCPU})
}

// SyncEASGD2 runs Algorithm 3 (GPU-resident center, peer DMA).
func SyncEASGD2(cfg Config) (Result, error) {
	return runSyncEASGD(cfg, "sync-easgd2", syncOpts{master: masterGPU})
}

// SyncEASGD3 runs Algorithm 3 with communication/computation overlap — the
// paper's Communication-Efficient EASGD and its best method.
func SyncEASGD3(cfg Config) (Result, error) {
	return runSyncEASGD(cfg, "sync-easgd3", syncOpts{master: masterGPU, overlap: true})
}

type masterKind int

const (
	masterCPU masterKind = iota
	masterGPU
)

type syncOpts struct {
	master  masterKind
	overlap bool
}

func runSyncEASGD(cfg Config, name string, opt syncOpts) (Result, error) {
	// Loss/corruption is supported — every parameter byte here moves through
	// the guarded collective engine — but the center update needs all P
	// contributions, so membership-shrinking knobs are not.
	if err := cfg.Faults.requireNoMembershipChange(name); err != nil {
		return Result{}, err
	}
	rc, err := newRunContext(cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = rc.cfg // validated copy with defaults applied
	env := sim.NewEnv()
	defer env.Close()

	// Sync EASGD1 stages GPU↔GPU exchanges through the host (and keeps the
	// center on the CPU); EASGD2/3 ride peer DMA through the PCIe switch.
	staged := opt.master == masterCPU
	paramCat := CatGPUGPUParam
	if staged {
		paramCat = CatCPUGPUParam
	}
	topo := cfg.Platform.topology(env, cfg.Workers, staged)
	rc.installChaos(topo, func(r int) int { return r })
	parties := comm.Ranks(cfg.Workers)
	cm := comm.NewCommunicator(topo, comm.CommConfig{Parties: parties, Plan: rc.plan})
	stream := rc.newStream(rc.plan)
	nb := stream.bz.NumBuckets()

	const root = 0
	n := len(rc.center)
	sum := make([]float32, n)
	losses := make([]float64, cfg.Workers)
	centerBufs := make([][]float32, cfg.Workers)
	for i := range centerBufs {
		centerBufs[i] = make([]float32, n)
	}
	bar := sim.NewBarrier(env, "iteration", cfg.Workers)

	for i := 0; i < cfg.Workers; i++ {
		i := i
		w := rc.workers[i]
		ep := cm.Endpoint(i)
		var crew *bucketCrew
		if opt.overlap {
			crew = newBucketCrew(env, fmt.Sprintf("gpu%d", i), maxInFlightBuckets)
		}
		env.Spawn(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
			for t := 0; t < cfg.Iterations; t++ {
				rc.injectFaults(p, i, t+1)
				t0 := p.Now()
				if i == root {
					// W̄_t was fixed by the master update of iteration t−1;
					// the broadcast distributes it (lines 11 of Algorithm 2/3).
					copy(centerBufs[root], rc.center)
				}
				// Under overlap (Sync EASGD3) the broadcast streams through
				// the bucketed pipeline: one forked message-wave process per
				// ~BucketBytes bucket of W̄ (at most maxInFlightBuckets in
				// flight), running beneath the data copy and forward/backward.
				// The join exposes only the excess — overlap is the pipeline's
				// consequence, not a hand-built max().
				base := 2 * t // rounds: non-overlap bcast 2t, reduce 2t+1
				if opt.overlap {
					base = t * (nb + 1) // rounds: buckets base..base+nb−1, reduce base+nb
					stream.forkBroadcasts(crew, fmt.Sprintf("bcast%d.%d", i, t), base, root, ep, centerBufs[i])
				}

				// Lines 7-9: the CPU posts the minibatch copies as concurrent
				// async DMAs — each worker's data link carries its own copy.
				p.Delay(rc.dataXfer)
				// Line 10: forward/backward. The real math runs on the par
				// pool while this process waits out its compute delay, so all
				// P replicas' gradients overlap in wall-clock time too.
				join := w.beginGradient()
				ct := rc.computeDelay(i, t+1)
				p.Delay(ct)
				losses[i] = join()

				var hidden float64
				if opt.overlap {
					hidden = crew.wait(p)
				} else {
					ep.Broadcast(p, base, root, centerBufs[i])
				}
				if i == root {
					rc.bd.Add(CatCPUGPUData, rc.dataXfer)
					rc.bd.Add(CatForwardBackward, ct)
					rc.chargeOverlap(paramCat, p.Now()-t0, rc.dataXfer+ct, hidden)
				}

				// Line 12: tree-reduce ΣW_j^t of the pre-update local weights
				// to the master's device.
				reduceRound := base + 1
				if opt.overlap {
					reduceRound = base + nb
				}
				tR := p.Now()
				if i == root {
					copy(sum, w.net.Params)
					ep.Reduce(p, reduceRound, root, sum)
					rc.bd.Add(paramCat, p.Now()-tR)
				} else {
					ep.Reduce(p, reduceRound, root, w.net.Params)
				}

				// Line 13: every worker applies Equation (1) with the W̄_t it
				// received.
				w.elasticLocal(cfg.LR, cfg.Rho, centerBufs[i])
				p.Delay(rc.workerUpdate)

				if i == root {
					// Line 14: the master applies Equation (2):
					// W̄ ← W̄ + ηρ(ΣW_j − P·W̄).
					a := cfg.LR * cfg.Rho
					pf := float32(cfg.Workers)
					for k := range rc.center {
						rc.center[k] += a * (sum[k] - pf*rc.center[k])
					}
					rc.updates++
					rc.samples += int64(cfg.Batch * cfg.Workers)
					rc.bd.Add(CatGPUUpdate, rc.workerUpdate)
					// Steps (4) and (5) overlap (§5.1): with a GPU master both
					// updates run on GPUs and the master's excess is zero; the
					// CPU master exposes its slower update's excess.
					if opt.master == masterCPU && rc.masterUpdate > rc.workerUpdate {
						excess := rc.masterUpdate - rc.workerUpdate
						p.Delay(excess)
						rc.bd.Add(CatCPUUpdate, excess)
					}
					if cfg.EvalEvery > 0 && (t+1)%cfg.EvalEvery == 0 {
						var roundLoss float64
						for _, l := range losses {
							roundLoss += l
						}
						roundLoss /= float64(cfg.Workers)
						rc.recordPoint(t+1, p.Now(), roundLoss)
					}
				}
				p.Wait(bar)
				if i == root {
					// Every worker has passed the barrier, so all of this
					// iteration's sends (including any pipelined tail hops)
					// have been charged; attribute the new wire traffic.
					rc.bd.AddBytes(paramCat, topo.BytesMoved()-rc.bd.ParamTraffic())
				}
				if rc.stopped {
					return
				}
			}
		})
	}

	end := env.Run()
	return rc.finish(name, end), nil
}

// gradAllReducer is the exchange surface the data-parallel SGD loop drives:
// a comm.Endpoint — the one handle type flat and hierarchical communicators
// both hand out, so hierarchy is an engine choice the loop never sees and
// the hierarchical variant is bit-identical to the flat one by construction
// — or the partial-aggregation endpoint, a genuinely different exchange
// (which streams neither ranges nor factors; Validate rejects those combos).
// MarkDead declares a rank fail-stopped: subsequent collectives re-form over
// the survivors (shrunken contribution lists, rebuilt schedules) instead of
// deadlocking on the missing party.
type gradAllReducer interface {
	AllReduce(p *sim.Proc, round int, buf []float32)
	AllReduceRange(p *sim.Proc, round int, buf []float32, lo, hi int)
	FactorAllGather(p *sim.Proc, round int, self comm.Factors, out []comm.Factors) []comm.Factors
	MarkDead(rank int)
}

// commEndpoints collects a flat or hierarchical communicator's per-rank
// handles for the worker loop.
func commEndpoints(n int, endpoint func(rank int) *comm.Endpoint) []gradAllReducer {
	eps := make([]gradAllReducer, n)
	for i := range eps {
		eps[i] = endpoint(i)
	}
	return eps
}

// syncSGDWire prepares the gradient message plan of a data-parallel run:
// the run plan, or the packed single-residual plan plus per-worker
// error-feedback quantizers under Config.Compression.
func (rc *runContext) syncSGDWire() (comm.Plan, comm.WireFunc, []*quant.Quantizer) {
	cfg := rc.cfg
	if cfg.Compression == quant.None {
		return rc.plan, nil, nil
	}
	// Compressed gradients travel as one packed message (the residual
	// layout of 1-bit SGD); each message's wire size is the scheme's.
	plan := comm.Plan{LayerBytes: []int64{rc.paramBytes}, Packed: true}
	wire := func(elems int) int64 { return quant.WireBytes(cfg.Compression, elems) }
	quantizers := make([]*quant.Quantizer, cfg.Workers)
	for i := range quantizers {
		quantizers[i] = quant.New(cfg.Compression, len(rc.center))
	}
	return plan, wire, quantizers
}

// SyncSGD is synchronous data-parallel SGD: gradients are allreduced under
// Config.Schedule (tree by default) and all replicas take the same
// averaged step. The center weight is the (identical) replica weight.
// Figure 10 runs it with packed and per-layer plans to isolate the §5.2
// effect. Low-precision gradients (§3.4 extension) quantize per worker
// with error feedback; the compressed wire size is charged on every
// simulated message the schedule sends. With Config.Overlap the allreduce
// streams: each ~BucketBytes bucket's collective forks at its
// gradient-ready instant during the backward walk, so its wire time hides
// under the remaining backprop — same schedule per bucket, reduced values
// bit-identical to the monolithic path.
func SyncSGD(cfg Config) (Result, error) {
	rc, err := newRunContext(cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = rc.cfg // validated copy with defaults applied
	if cfg.Faults.PartialK > 0 && cfg.Overlap {
		return Result{}, fmt.Errorf("core: partial aggregation (PartialK) is incompatible with Overlap streaming")
	}
	env := sim.NewEnv()
	defer env.Close()

	topo := cfg.Platform.topology(env, cfg.Workers, true)
	// Ranks are topology nodes 0..P-1 on the flat PCIe tree.
	rc.installChaos(topo, func(r int) int { return r })
	plan, wire, quantizers := rc.syncSGDWire()
	var eps []gradAllReducer
	if cfg.Faults.PartialK > 0 {
		eps = newPartialAgg(rc, topo, wire).endpoints()
	} else {
		eps = commEndpoints(cfg.Workers, comm.NewCommunicator(topo, comm.CommConfig{
			Parties: comm.Ranks(cfg.Workers), Plan: plan, Schedule: cfg.Schedule, Wire: wire,
		}).Endpoint)
	}
	end := rc.runSyncSGDWorkers(env, plan, eps, quantizers, topo.BytesMoved,
		func() float64 { return topo.RetryWait(0) })
	return rc.finish("sync-sgd", end), nil
}

// runSyncSGDWorkers spawns the data-parallel worker processes and runs the
// iteration loop over the given collective endpoints (flat, hierarchical
// or partial-aggregation), returning the simulated end time. retryWait
// reads the coordinating rank's cumulative sender-side retry time (nil
// when the topology cannot retry); the loop samples its deltas so retry
// time lands in CatRetry instead of the parameter-communication category.
func (rc *runContext) runSyncSGDWorkers(env *sim.Env, plan comm.Plan, eps []gradAllReducer, quantizers []*quant.Quantizer, bytesMoved func() int64, retryWait func() float64) float64 {
	cfg := rc.cfg
	// The hybrid comm layout (nil in dense mode): SFB layers leave the
	// bucketed allreduce stream and ride factor allgathers of their own;
	// their reconstruction replays each rank's gradient computation in rank
	// order, so every path below ends with gradients bit-identical to the
	// dense allreduce.
	hy := rc.hybridRun(plan)
	var skip []bool
	if hy != nil {
		skip = hy.skip
	}
	stream := rc.newStreamMasked(plan, skip)
	nb := stream.bz.NumBuckets()
	// Collective rounds consumed per iteration, so round numbers never
	// collide across an iteration's buckets, dense runs and factor
	// allgathers.
	perIterOverlap := nb
	perIterMono := 1
	if hy != nil {
		perIterOverlap = nb + len(hy.segs)
		perIterMono = len(hy.denseRuns) + len(hy.segs)
	}
	if retryWait == nil {
		retryWait = func() float64 { return 0 }
	}

	const root = 0
	losses := make([]float64, cfg.Workers)
	bar := sim.NewBarrier(env, "iteration", cfg.Workers)

	// Fail-continue (FaultPlan.FailMode "continue"): worker failRank dies
	// for good at the start of step failStep; the survivors mark it dead
	// (the collectives re-form over P−1 live ranks), switch to a smaller
	// barrier, and the averaged step divides by the live count from that
	// step on. No checkpoint, no replay — the dead rank's data shard simply
	// leaves the sample stream.
	faults := &cfg.Faults
	failStep := 0
	if faults.failContinue() {
		failStep = faults.FailAtStep
	}
	barLive := bar
	if failStep > 0 {
		barLive = sim.NewBarrier(env, "iteration-live", cfg.Workers-1)
	}
	liveAt := func(s int) int {
		if failStep > 0 && s >= failStep {
			return cfg.Workers - 1
		}
		return cfg.Workers
	}

	for i := 0; i < cfg.Workers; i++ {
		i := i
		w := rc.workers[i]
		// The exchange runs in place on the replica's packed gradient: the
		// collectives borrow the buffer for the length of the call, and the
		// next backward rewrites it only after this step's last join.
		grads := w.net.Grads
		ep := eps[i]
		var crew *bucketCrew
		if cfg.Overlap {
			crew = newBucketCrew(env, fmt.Sprintf("gpu%d", i), maxInFlightBuckets)
		}
		env.Spawn(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
			for t := 0; t < cfg.Iterations; t++ {
				s := t + 1
				if failStep > 0 && s >= failStep {
					if i == faults.FailRank {
						// Fail-stop without checkpoint: this worker is gone.
						rc.failedRank = i
						return
					}
					if s == failStep {
						ep.MarkDead(faults.FailRank) // idempotent across survivors
					}
				}
				rc.injectFaults(p, i, s)
				t0 := p.Now()
				p.Delay(rc.dataXfer) // concurrent async DMAs to all workers

				if cfg.Overlap {
					// The streaming pipeline: the backward walk emits bucket-
					// ready instants; each bucket's allreduce is forked the
					// moment its last layer's gradient lands, so its message
					// waves (same per-bucket schedule) run beneath the tail
					// of backprop and beneath each other (bounded in-flight).
					// The reduced values stay bit-identical to the monolithic
					// allreduce: same elements, same rank-ordered sums.
					prepared := false
					scale := rc.computeScale(i, t+1)
					ready := func() {
						if !prepared {
							// First emission: the pool join has landed, the
							// full gradient is final; quantize (error
							// feedback) once, exactly as the monolithic path
							// does after its compute delay.
							if quantizers != nil {
								quantizers[i].Apply(grads, grads)
							}
							prepared = true
						}
					}
					var onFactor func(seg int, e nn.GradEvent)
					if hy != nil {
						onFactor = func(seg int, e nn.GradEvent) {
							// An SFB layer's gradient-ready instant: its
							// factor views are live; the forked allgather
							// snapshots them at send time, so the collective
							// streams beneath the remaining backward exactly
							// like a bucket's allreduce.
							ready()
							k := hy.bySeg[seg]
							self := comm.Factors{DY: e.DY, X: e.X, B: e.B, F: e.F, D: e.D}
							crew.fork(fmt.Sprintf("fg%d.%d.%d", i, t, k), func(bp *sim.Proc) {
								hy.outs[i][k] = ep.FactorAllGather(bp, t*perIterOverlap+nb+k, self, hy.outs[i][k])
							})
						}
					}
					losses[i] = stream.walkHybrid(p, w, scale, func(b int, bk comm.Bucket) {
						ready()
						crew.fork(fmt.Sprintf("ar%d.%d.%d", i, t, b), func(bp *sim.Proc) {
							ep.AllReduceRange(bp, t*perIterOverlap+b, grads, bk.Lo, bk.Hi)
						})
					}, onFactor)
					hidden := crew.wait(p)
					if hy != nil {
						// Every factor list is in; reconstruction is
						// receiver-side compute after the joins (it needs
						// all P pairs), charged to the virtual clock here
						// and attributed to CatSFBRecon at the root.
						for k, sg := range hy.segs {
							hy.scratch[i] = comm.ReconstructFactors(grads[sg.lo:sg.hi], hy.outs[i][k], hy.scratch[i])
						}
						p.Delay(hy.reconTime)
					}
					if i == root {
						ct := w.computeTime * scale
						rc.bd.Add(CatCPUGPUData, rc.dataXfer)
						rc.bd.Add(CatForwardBackward, ct)
						busy := rc.dataXfer + ct
						if hy != nil {
							rc.bd.Add(CatSFBRecon, hy.reconTime)
							busy += hy.reconTime
						}
						rc.chargeOverlap(CatCPUGPUParam, p.Now()-t0, busy, hidden)
					}
				} else {
					join := w.beginGradient()
					ct := rc.computeDelay(i, t+1)
					p.Delay(ct)
					losses[i] = join()

					// The allreduce: real gradient segments move under the
					// selected schedule; every worker ends with the rank-ordered
					// sum, bit-identical to comm.ReduceSum.
					if quantizers != nil {
						quantizers[i].Apply(grads, grads)
					}
					tA := p.Now()
					rw0, dw0 := retryWait(), rc.droppedWait
					if hy == nil {
						ep.AllReduce(p, t*perIterMono, grads)
					} else {
						// Hybrid monolithic: each contiguous run of dense
						// segments allreduces as a range, each SFB layer's
						// factors allgather and reconstruct in place — the
						// concatenation covers the model exactly once, in
						// rank order everywhere, so the result matches the
						// whole-model allreduce bit for bit.
						base := t * perIterMono
						for j, dr := range hy.denseRuns {
							ep.AllReduceRange(p, base+j, grads, dr.lo, dr.hi)
						}
						nd := len(hy.denseRuns)
						for k, sg := range hy.segs {
							dy, x, fb, ff, fd := w.net.Layers[sg.layer].(nn.FactorLayer).BackwardFactors()
							self := comm.Factors{DY: dy, X: x, B: fb, F: ff, D: fd}
							hy.outs[i][k] = ep.FactorAllGather(p, base+nd+k, self, hy.outs[i][k])
							hy.scratch[i] = comm.ReconstructFactors(grads[sg.lo:sg.hi], hy.outs[i][k], hy.scratch[i])
						}
						p.Delay(hy.reconTime)
					}
					if i == root {
						rc.bd.Add(CatCPUGPUData, rc.dataXfer)
						rc.bd.Add(CatForwardBackward, ct)
						// The collective's wall time splits four ways: the
						// root's own retry stalls (CatRetry), its partial-
						// aggregation deadline waits (CatDropped), the SFB
						// reconstruction compute (CatSFBRecon), and the
						// rest — the communication proper.
						retryD := retryWait() - rw0
						dropD := rc.droppedWait - dw0
						reconD := 0.0
						if hy != nil {
							reconD = hy.reconTime
						}
						commT := p.Now() - tA - retryD - dropD - reconD
						if commT < 0 {
							commT = 0
						}
						rc.bd.Add(CatCPUGPUParam, commT)
						rc.bd.Add(CatRetry, retryD)
						rc.bd.Add(CatDropped, dropD)
						rc.bd.Add(CatSFBRecon, reconD)
					}
				}

				// Every live replica takes the same averaged step.
				live := liveAt(s)
				step := cfg.LR / float32(live)
				for k, g := range grads {
					w.net.Params[k] -= step * g
				}
				p.Delay(rc.workerUpdate)

				if i == root {
					copy(rc.center, w.net.Params)
					rc.updates++
					rc.samples += int64(cfg.Batch * live)
					rc.bd.Add(CatGPUUpdate, rc.workerUpdate)
					if cfg.EvalEvery > 0 && s%cfg.EvalEvery == 0 {
						var roundLoss float64
						for j, l := range losses {
							if failStep > 0 && s >= failStep && j == faults.FailRank {
								continue
							}
							roundLoss += l
						}
						roundLoss /= float64(live)
						rc.recordPoint(s, p.Now(), roundLoss)
					}
				}
				tB := p.Now()
				b := bar
				if failStep > 0 && s >= failStep {
					b = barLive
				}
				p.Wait(b)
				if i == root {
					// The root's barrier wait is the pipeline drain: under
					// the eager chain schedule rank 0 finishes its hops
					// before the tail of the line does, and that exposed
					// time is still communication. (Synchronized schedules
					// release everyone together, so the wait is zero.)
					rc.bd.Add(CatCPUGPUParam, p.Now()-tB)
					// Post-barrier, every rank's sends — including the chain
					// tail hops — have been charged.
					rc.bd.AddBytes(CatCPUGPUParam, bytesMoved()-rc.bd.ParamTraffic())
				}
				if rc.stopped {
					return
				}
			}
		})
	}

	return env.Run()
}
