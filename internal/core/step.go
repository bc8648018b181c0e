package core

import (
	"scaledl/internal/comm"
	"scaledl/internal/nn"
	"scaledl/internal/sim"
)

// This file is the one rank program every coordinated method runs: Sync
// EASGD1/2/3, the KNL cluster's Algorithm 4, sync-sgd, and the two
// hierarchical methods. The paper walks Sync EASGD1 → 2 → 3 → Algorithm 4
// as co-design steps of *one* algorithm — where W̄ lives, which link carries
// it, whether its broadcast hides under compute — and that is how they are
// written here: one step frame (runProgram), and per method a row of
// function values the frame calls without knowing which method it drives.
//
//	membership → fault stall → [begin] → data copy → COMPUTE →
//	  per stage: EXCHANGE → UPDATE → root bookkeeping → iteration barrier →
//	  byte attribution → stop check
//
// The three seams:
//
//	compute  — wholeGradient (the gradient is final at the join) or
//	           streamedGradient (the backward walk emits bucket- and
//	           factor-ready instants while it runs; stream.go);
//	exchange — elasticCenter (Broadcast W̄ + Reduce ΣW, optionally pre-forked
//	           beneath compute; exchange.go), gradExchange (dense allreduce,
//	           bucketed ranges, factor allgathers, partial-K; exchange.go),
//	           the group leaders' fabric allreduce (hier.go);
//	update   — Equations (1)+(2) elastic, the averaged SGD step, local SGD
//	           and the elastic pull.
//
// Choosing the exchange outside the loop is Poseidon's structure (the comm
// strategy is a per-layer decision made before training starts) and
// FireCaffe's (reduction tree versus parameter server is a schedule, never a
// code path). The master/worker programs (async.go, roundrobin.go) are a
// different process shape — a master process, unbounded worker loops, stop
// sentinels — and deliberately stay outside this frame.

// step is one rank's view of one iteration: the marks the seams hand each
// other. One step value lives per rank and is reused every iteration, so
// the seams (built once per rank) can close over it.
type step struct {
	rc   *runContext
	p    *sim.Proc
	rank int
	root bool    // the coordinating rank: its exposed time is the Breakdown
	t    int     // 0-based iteration; the fault plan's 1-based step is t+1
	live int     // ranks alive this step
	t0   float64 // instant the step's work began (after any fault stall)
	busy float64 // modeled seconds of the busy path since t0: data copy, compute, reconstruction
	loss float64 // this rank's batch loss, set by compute
}

// charge adds d seconds to category c of the run's Breakdown — from the
// coordinating rank only: the Breakdown is its exposed-time accounting, and
// a remote rank's time reaches it as collective or barrier wait.
func (st *step) charge(c Category, d float64) {
	if st.root {
		st.rc.bd.Add(c, d)
	}
}

// spend advances the rank by d modeled seconds of work and charges them.
func (st *step) spend(c Category, d float64) {
	st.p.Delay(d)
	st.charge(c, d)
}

// chargeExposed closes an overlapped phase at instant at: of the wall time
// since the step began, everything beyond the busy path is exposed
// communication (charged to c), and the crew's active seconds beyond that
// exposed share ran hidden beneath the busy path (HiddenComm). active = 0
// degrades to plain exposed-excess accounting, so overlapped and monolithic
// variants share one formula.
func (st *step) chargeExposed(c Category, at, active float64) {
	if !st.root {
		return
	}
	exposed := at - st.t0 - st.busy
	if exposed > 0 {
		st.rc.bd.Add(c, exposed)
	} else {
		exposed = 0
	}
	st.rc.bd.AddHidden(active - exposed)
}

// stage is one exchange → update pair of a step. Flat methods have one;
// hier-sync-easgd has one per level of its τ structure.
type stage struct {
	every    int            // runs on the 1-based steps divisible by every
	exchange func(st *step) // moves parameters; charges its own exposed time
	update   func(st *step) // applies the update rule, spending its modeled time
	master   bool           // the update advances the master's center (Result.MasterUpdates)
}

// rankProgram is what one rank does each step; program.rank builds it once.
type rankProgram struct {
	name     string         // simulated process name
	begin    func(st *step) // optional: launch, before the data copy, traffic whose payload is already final
	compute  func(st *step)
	stages   []stage
	markDead func(rank int) // re-form the exchange around a fail-stopped rank; set where the support table admits fail-continue
}

// program is a coordinated method's row.
type program struct {
	topo     *comm.Topology // wire bytes are read off it after each iteration barrier
	dataXfer float64        // per-step minibatch copy; 0 when ranks sample local memory
	cat      Category       // where the method's parameter wire bytes land
	drainCat Category       // where root's iteration-barrier wait (a pipelined schedule's tail) lands
	rank     func(i int, st *step) rankProgram
}

// runCoordinated is the shared shell of the coordinated methods: the run
// context (validation, the support table, replicas), the environment, the
// method's row, the frame, the Result.
func runCoordinated(method string, cfg Config, row func(rc *runContext, env *sim.Env) program) (Result, error) {
	rc, err := newRunContext(method, cfg)
	if err != nil {
		return Result{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	return rc.finish(method, rc.runProgram(env, row(rc, env))), nil
}

// runProgram spawns one simulated process per rank and drives the step frame
// to the iteration budget (or the accuracy target), returning the simulated
// end time. It is the only place rank processes of the coordinated methods
// are launched, so fault, trace and deadlock hooks attach here once.
func (rc *runContext) runProgram(env *sim.Env, m program) float64 {
	cfg := rc.cfg
	const root = 0
	// Fail-continue (FaultPlan.FailMode "continue"): worker FailRank dies for
	// good at the start of step failStep; the survivors mark it dead (the
	// exchange re-forms over P−1 live ranks) and switch to a smaller barrier.
	// No checkpoint, no replay — the dead rank's shard leaves the sample
	// stream. The support table admits this only where the exchange can shrink.
	faults := &cfg.Faults
	failStep := 0
	if faults.failContinue() {
		failStep = faults.FailAtStep
	}
	bar := sim.NewBarrier(env, "iteration", cfg.Workers)
	barLive := bar
	if failStep > 0 {
		barLive = sim.NewBarrier(env, "iteration-live", cfg.Workers-1)
	}
	losses := make([]float64, cfg.Workers)

	for i := 0; i < cfg.Workers; i++ {
		i := i
		st := &step{rc: rc, rank: i, root: i == root, live: cfg.Workers}
		r := m.rank(i, st)
		env.Spawn(r.name, func(p *sim.Proc) {
			st.p = p
			b, dead := bar, -1
			for t := 0; t < cfg.Iterations; t++ {
				s := t + 1
				if failStep > 0 && s >= failStep {
					if i == faults.FailRank {
						rc.failedRank = i // fail-stop without checkpoint: this worker is gone
						return
					}
					if s == failStep {
						r.markDead(faults.FailRank) // idempotent across survivors
					}
					b, dead, st.live = barLive, faults.FailRank, cfg.Workers-1
				}
				rc.injectFaults(p, i, s)
				st.t, st.t0, st.busy = t, p.Now(), m.dataXfer
				if r.begin != nil {
					r.begin(st)
				}
				if m.dataXfer > 0 {
					// The CPU posts the minibatch copies as concurrent async
					// DMAs — each worker's data link carries its own.
					st.spend(CatCPUGPUData, m.dataXfer)
				}
				r.compute(st)
				losses[i] = st.loss
				for _, sg := range r.stages {
					if s%sg.every == 0 {
						sg.exchange(st)
						sg.update(st)
						if sg.master && st.root {
							rc.updates++
						}
					}
				}
				if st.root {
					rc.samples += int64(cfg.Batch * st.live)
					if cfg.EvalEvery > 0 && s%cfg.EvalEvery == 0 {
						// Every live rank committed its loss before the
						// exchange that just completed.
						var mean float64
						for j, l := range losses {
							if j != dead {
								mean += l
							}
						}
						rc.recordPoint(s, p.Now(), mean/float64(st.live))
					}
				}
				tB := p.Now()
				p.Wait(b)
				if st.root {
					// Root's barrier wait is the pipeline drain: under an eager
					// schedule it finishes its hops before the tail of the line
					// does, and that exposed time is still communication (zero
					// when the schedule releases everyone together). Past the
					// barrier every rank's sends — tail hops included — have
					// been charged to the wire.
					rc.bd.Add(m.drainCat, p.Now()-tB)
					rc.bd.AddBytes(m.cat, m.topo.BytesMoved()-rc.bd.ParamTraffic())
				}
				if rc.stopped {
					return
				}
			}
		})
	}
	return env.Run()
}

// ---- compute seams ----

// wholeGradient is the compute seam whose gradient is final at the join: the
// real math runs on the par pool while the rank waits out its modeled
// compute time, so all P replicas' gradients overlap in wall-clock time too.
func (rc *runContext) wholeGradient(w *worker) func(*step) {
	return func(st *step) {
		join := w.beginGradient()
		ct := rc.computeDelay(st.rank, st.t+1)
		st.p.Delay(ct)
		st.loss = join()
		st.charge(CatForwardBackward, ct)
		st.busy += ct
	}
}

// streamedGradient is the compute seam of the streaming pipeline: the
// backward walk replays the real GradEvent order on the virtual clock and
// hands each bucket-ready (and factor-ready) instant to the exchange, which
// forks that piece's collective beneath the remaining backprop.
func (rc *runContext) streamedGradient(sp *streamPlan, w *worker, onBucket func(b int, bk comm.Bucket), onFactor func(seg int, e nn.GradEvent)) func(*step) {
	return func(st *step) {
		scale := rc.computeScale(st.rank, st.t+1)
		st.loss = sp.walk(st.p, w, scale, onBucket, onFactor)
		ct := w.computeTime * scale
		st.charge(CatForwardBackward, ct)
		st.busy += ct
	}
}

// ---- update seams shared across rows ----

// centerStep applies Equation (2) over n contributors:
// C ← C + ηρ(ΣW − n·C), with a = ηρ.
func centerStep(center, sum []float32, a, n float32) {
	for k := range center {
		center[k] += a * (sum[k] - n*center[k])
	}
}

// elasticPull applies W ← W − a·(W − C), the elastic attraction of
// Equation (1) with the gradient term already applied by a local step.
func elasticPull(params, center []float32, a float32) {
	for i := range params {
		params[i] -= a * (params[i] - center[i])
	}
}

// idle is the exchange (or update) of a stage that has none.
func idle(*step) {}
