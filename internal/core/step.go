package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/nn"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
)

// This file holds the two frames every method runs on — each process shape
// written once, a method being a row of function values its frame calls
// without knowing which method it drives — and the one set of charging
// helpers (step.charge / spend / chargeExposed) through which every second of
// every method reaches the Breakdown. The accounting rule itself (whose clock
// is the account, what drain means) is stated once, on Breakdown in
// metrics.go.
//
// The step frame (program.run) is the one rank program of the coordinated
// methods: Sync EASGD1/2/3, the KNL cluster's Algorithm 4, sync-sgd and the
// two hierarchical methods. The paper walks Sync EASGD1 → 2 → 3 → Algorithm 4
// as co-design steps of *one* algorithm — where W̄ lives, which link carries
// it, whether its broadcast hides under compute — and that is how they are
// written: one process per rank, and per step
//
//	membership → fault stall → [begin] → data copy → COMPUTE →
//	  per stage: EXCHANGE → UPDATE → root bookkeeping → iteration barrier →
//	  byte attribution → stop check
//
// The served frame (served.run) is the one master/worker program of the
// paper's baselines — the six parameter-server methods (async.go) and the two
// Original EASGD schedules (roundrobin.go), the other half of every
// comparison in Table 3 and Figures 6/8: a master process, unbounded worker
// loops, stop sentinels instead of an iteration barrier.
//
//	master:  turn ARRIVEs (first come first served off the inbox, or in rank
//	         order) → budget check → SERVE, in line or in a lock-free handler
//	         process of its own … then one stop sentinel per worker → drain
//	worker:  [AWAIT the master's turn] → fault stall → data copy → STEP
//	         (compute, push and pull in the row's order) → sample count
//
// The seams:
//
//	compute   — wholeGradient (the gradient is final at the join) or
//	            streamedGradient (the backward walk emits bucket- and
//	            factor-ready instants while it runs; stream.go); both frames;
//	exchange  — elasticCenter (Broadcast W̄ + Reduce ΣW, optionally pre-forked
//	            beneath compute; exchange.go), gradExchange (dense allreduce,
//	            bucketed ranges, factor allgathers, partial-K; exchange.go),
//	            the group leaders' fabric allreduce (hier.go);
//	update    — Equations (1)+(2) elastic, the averaged SGD step, local SGD
//	            and the elastic pull;
//	push/pull — {SGD, MSGD, EASGD, MEASGD} × {locked, lock-free} (async.go),
//	            round-robin {serial, overlapped} (roundrobin.go).
//
// Choosing the exchange outside the loop is Poseidon's structure (the comm
// strategy is a per-layer decision made before training starts) and
// FireCaffe's (reduction tree versus parameter server is a schedule inside
// one accounting, never a code path).

// step is one process's view of one iteration: the marks the seams hand each
// other. One step value lives per rank (and one for the served frame's
// master) and is reused every iteration, so the seams (built once per rank)
// can close over it.
type step struct {
	rc   *runContext
	p    *sim.Proc
	rank int
	root bool    // the row's root: its clock is the Breakdown
	t    int     // 0-based iteration; the fault plan's 1-based step is t+1
	live int     // ranks alive this step
	t0   float64 // instant the step's work began (after any fault stall)
	busy float64 // modeled seconds of the busy path since t0: data copy, compute, reconstruction
	loss float64 // this rank's batch loss, set by compute
}

// charge adds d seconds to category c of the run's Breakdown — from the
// row's root only: the Breakdown is its clock, and another process's time
// reaches it as the wait (collective, barrier, completion, reply) it charges.
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
// since the phase opened, everything beyond the busy path is exposed
// communication (charged to c), and the active seconds beyond that exposed
// share ran hidden beneath the busy path (HiddenComm). active = 0 degrades
// to plain exposed-excess accounting, so overlapped and monolithic variants
// share one formula. The next phase opens at at, so the phases of a step
// chain without a gap or an overlap.
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
	st.t0, st.busy = at, 0
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

// frame is a method's row, runnable: the step frame's program or the served
// frame's served. run drives the row's processes to the end of the run and
// returns the simulated end time.
type frame interface {
	run(rc *runContext, env *sim.Env) float64
}

// runRow is the shared shell of all fifteen methods: the run context
// (validation, the support table, replicas), the environment, the method's
// row, its frame, the Result.
func runRow(method string, cfg Config, row func(rc *runContext, env *sim.Env) frame) (Result, error) {
	rc, err := newRunContext(method, cfg)
	if err != nil {
		return Result{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	return rc.finish(method, row(rc, env).run(rc, env)), nil
}

// run spawns one simulated process per rank and drives the step frame to the
// iteration budget (or the accuracy target). It is the only place rank
// processes of the coordinated methods are launched, so fault, trace and
// deadlock hooks attach here and in served.run, nowhere else.
func (m program) run(rc *runContext, env *sim.Env) float64 {
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
				st.t = t
				st.stall()
				st.t0, st.busy = p.Now(), m.dataXfer
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

// ---- the served frame ----

// pushMsg travels worker→master. payload is the gradient (SGD-style) or the
// worker's pre-update local weights (EASGD-style, round-robin); loss is the
// batch loss of the round that produced it (0 for an EASGD worker's first
// request, which ships the initial weights before any batch) — carrying it in
// the message keeps the master's loss telemetry deterministic while the
// worker's next gradient is in flight on the par pool. The round-robin
// completions are free control signals whose upload the master pulls: wire is
// what that pull will cost, and under the streaming pipeline one completion
// per gradient bucket names its bucket, the last carrying payload and loss.
type pushMsg struct {
	loss    float64
	payload []float32
	wire    int64
	bucket  int
}

// pullMsg travels master→worker: W̄ as the worker will see it, or the stop
// sentinel. active is the master's service seconds for the request this
// answers (update + reply wire) — what chargeExposed splits into exposed and
// hidden on the worker's clock.
type pullMsg struct {
	center []float32
	stop   bool
	active float64
}

// Message tags on the master/worker topology.
const (
	tagPush = 1
	tagPull = 2
)

// sendCenter ships W̄ to worker j as msg — encoded into msg.center, whose
// lifetime is the caller's call — over j's host link. Parameter traffic rides
// SendModel/DelayModel, outside comm's guarded message path: semantic faults
// cannot be injected here, and the support table refuses them.
func (rc *runContext) sendCenter(p *sim.Proc, topo *comm.Topology, j int, codec *quant.DeltaCodec, msg *pullMsg) {
	topo.SendModel(p, topo.Host(), j, tagPull, msg, rc.plan, snapshot(codec, rc.center, msg.center))
}

// pull blocks a worker for the master's next message and closes the phase
// the wait ends: what of it outlasted the busy path is exposed
// parameter-server time, the rest of the master's service ran hidden.
func pull(st *step, topo *comm.Topology, cat Category) *pullMsg {
	msg := topo.Recv(st.p, st.rank, topo.Host(), tagPull).(*pullMsg)
	st.chargeExposed(cat, st.p.Now(), msg.active)
	return msg
}

// served is a master/worker method's row.
type served struct {
	topo     *comm.Topology
	root     int      // the node whose clock is the Breakdown: topo.Host() or rank 0
	cat      Category // where parameter wire bytes, stop sentinels and the drain land
	dataXfer float64  // per-step minibatch copy on the worker's clock; 0 when the master posts it
	lockFree bool     // every arrival is served by a handler process of its own (Hogwild)
	// arrive blocks the master until the next turn is due and returns whose
	// it is: the next request off the inbox (first come, first served), or
	// rank n mod P once that rank's outstanding completion is collected
	// (round-robin). n counts the turns served, then the workers retired.
	arrive func(ms *step, n int) int
	// serve is one master service for worker j on process p — the master
	// itself, or a lock-free handler. ms is the master's step.
	serve  func(ms *step, p *sim.Proc, j int)
	worker func(i int, st *step) servedWorker
}

// servedWorker is what one worker does each step; served.worker builds it once.
type servedWorker struct {
	name  string
	await func(st *step) bool // optional: block for the master's turn before the step; false on the stop sentinel
	step  func(st *step) bool // compute, push and pull in the row's order; false on the stop sentinel
}

// run spawns the master and one process per worker and drives the served
// frame until the master has spent the iteration budget (or met the accuracy
// target) and retired every worker. It is the only place master, handler and
// worker processes of the master/worker methods are launched.
func (m served) run(rc *runContext, env *sim.Env) float64 {
	cfg := rc.cfg
	master := m.topo.Host()
	var rootEnd float64
	spawn := func(name string, st *step, body func()) {
		env.Spawn(name, func(p *sim.Proc) {
			st.p = p
			body()
			if st.root {
				rootEnd = p.Now()
			}
		})
	}
	newStep := func(id int) *step { return &step{rc: rc, rank: id, root: id == m.root} }
	ms := newStep(master)
	spawn("master", ms, func() {
		stop := &pullMsg{stop: true}
		served, retired := 0, 0
		over := func() bool { return served >= cfg.Iterations || rc.stopped }
		for retired < cfg.Workers {
			n := served
			if over() {
				n = retired
			}
			j := m.arrive(ms, n)
			// Read again: a lock-free handler may have met the target while
			// the master was blocked on the inbox.
			if over() {
				// Stop sentinels are zero-size control messages; their α is
				// on the master's clock.
				t0 := ms.p.Now()
				m.topo.Send(ms.p, master, j, tagPull, stop, 0)
				ms.charge(m.cat, ms.p.Now()-t0)
				retired++
				continue
			}
			served++
			if m.lockFree {
				env.Spawn(fmt.Sprintf("handler-%d", served), func(h *sim.Proc) { m.serve(ms, h, j) })
			} else {
				m.serve(ms, ms.p, j)
			}
		}
	})
	for i := 0; i < cfg.Workers; i++ {
		st := newStep(i)
		w := m.worker(i, st)
		spawn(w.name, st, func() {
			for st.t = 0; ; st.t++ {
				if w.await != nil && !w.await(st) {
					return
				}
				st.stall()
				st.t0, st.busy = st.p.Now(), m.dataXfer
				if m.dataXfer > 0 {
					st.spend(CatCPUGPUData, m.dataXfer)
				}
				if !w.step(st) {
					return
				}
				rc.samples += int64(cfg.Batch)
			}
		})
	}
	// The root's clock stops when it retires; the rest of the run is drain.
	// Every byte on this topology is parameter traffic.
	end := env.Run()
	rc.bd.Add(m.cat, end-rootEnd)
	rc.bd.AddBytes(m.cat, m.topo.BytesMoved())
	return end
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
