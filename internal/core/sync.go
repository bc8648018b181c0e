package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
)

// The synchronous family's rows of the step frame (step.go). Each round, all
// P workers compute gradients in parallel on their own replicas and data;
// the center weight is combined by tree collectives in Θ(log P)(α + |W|β)
// instead of the round-robin's Θ(P)(α + |W|β). The three Sync EASGD
// versions are the paper's §6.1 co-design steps, and differ only in the
// cells of one row:
//
//	            center on  GPU↔GPU link        broadcast     master update
//	sync-easgd1 CPU        host-staged         in line       exposes its excess over the workers'
//	sync-easgd2 GPU1       peer DMA (switch)   in line       hidden (runs on a GPU, beside theirs)
//	sync-easgd3 GPU1       peer DMA (switch)   pre-forked    hidden
//	knl-cluster KNL1       fabric              Config.Overlap  in line (knlcluster.go)
//
//	compute: wholeGradient · exchange: elasticCenter · update: Eq. (1) + (2)
//
// sync-sgd is classic synchronous data parallelism — compute: wholeGradient
// or, under Config.Overlap, streamedGradient · exchange: gradExchange under
// Config.Schedule (tree, ring, recursive halving/doubling, pipelined chain,
// linear), in line or bucketed, dense or sufficient-factor, or the partial-K
// gather · update: the averaged SGD step. Figure 10 runs it with packed and
// per-layer plans to isolate the §5.2 effect.

// SyncEASGD1 runs Algorithm 2 (tree reduction, CPU-resident center).
func SyncEASGD1(cfg Config) (Result, error) { return syncEASGD(cfg, "sync-easgd1", true, false) }

// SyncEASGD2 runs Algorithm 3 (GPU-resident center, peer DMA).
func SyncEASGD2(cfg Config) (Result, error) { return syncEASGD(cfg, "sync-easgd2", false, false) }

// SyncEASGD3 runs Algorithm 3 with communication/computation overlap — the
// paper's Communication-Efficient EASGD and its best method. It always
// streams its broadcast (that is its definition) and honors BucketBytes.
func SyncEASGD3(cfg Config) (Result, error) { return syncEASGD(cfg, "sync-easgd3", false, true) }

func syncEASGD(cfg Config, name string, cpuMaster, overlap bool) (Result, error) {
	return runRow(name, cfg, func(rc *runContext, env *sim.Env) frame {
		// Sync EASGD1 stages GPU↔GPU exchanges through the host (and keeps
		// the center on the CPU); EASGD2/3 ride peer DMA through the switch.
		topo := rc.cfg.Platform.topology(env, rc.cfg.Workers, cpuMaster)
		rc.installChaos(topo)
		cm := comm.NewCommunicator(topo, comm.CommConfig{Parties: comm.Ranks(rc.cfg.Workers), Plan: rc.plan})
		m := elasticProgram{topo: topo, endpoint: cm.Endpoint, plan: rc.plan, overlap: overlap,
			procName: "gpu%d", dataXfer: rc.dataXfer, cat: CatGPUGPUParam}
		if cpuMaster {
			m.cat = CatCPUGPUParam
			// Steps (4) and (5) overlap (§5.1): a GPU master's update hides
			// beside the workers'; the CPU master exposes its slower update's
			// excess.
			if rc.masterUpdate > rc.workerUpdate {
				m.masterExtra = rc.masterUpdate - rc.workerUpdate
			}
		}
		return rc.elasticRow(env, m)
	})
}

// elasticProgram is what distinguishes the flat EASGD rows from each other.
type elasticProgram struct {
	topo        *comm.Topology
	endpoint    func(rank int) *comm.Endpoint
	plan        comm.Plan // the communicator's plan (bucket boundaries)
	overlap     bool      // pre-fork the broadcast beneath compute
	procName    string
	dataXfer    float64
	cat         Category
	masterExtra float64 // seconds of the master's update exposed past the workers'
}

// elasticRow builds the flat EASGD row: Algorithms 2, 3 and 4.
func (rc *runContext) elasticRow(env *sim.Env, m elasticProgram) program {
	cfg := rc.cfg
	const master = 0
	sp := rc.newStream(m.plan, nil)
	return program{topo: m.topo, dataXfer: m.dataXfer, cat: m.cat, drainCat: m.cat,
		rank: func(i int, _ *step) rankProgram {
			w := rc.workers[i]
			name := fmt.Sprintf(m.procName, i)
			var crew *bucketCrew
			if m.overlap {
				crew = newBucketCrew(env, name, maxInFlightBuckets)
			}
			var center []float32
			if i == master {
				center = rc.center
			}
			x := newElasticCenter(m.endpoint(i), master, center, w.net.Params, sp, crew)
			return rankProgram{name: name, begin: x.begin, compute: rc.wholeGradient(w),
				stages: []stage{{every: 1, master: true,
					exchange: func(st *step) {
						// The broadcast's exposed time is charged the same way
						// streamed or in line (active = 0 is the monolithic
						// formula): overlap hides time, it never re-labels it.
						active, tR := x.finish(st)
						st.chargeExposed(m.cat, tR, active)
						st.charge(m.cat, st.p.Now()-tR)
					},
					update: func(st *step) {
						// Every worker applies Equation (1) with the W̄_t it
						// received; the master then applies Equation (2).
						w.elasticLocal(cfg.LR, cfg.Rho, x.buf)
						st.spend(CatGPUUpdate, rc.workerUpdate)
						if x.center != nil {
							centerStep(x.center, x.sum, cfg.LR*cfg.Rho, float32(cfg.Workers))
							if m.masterExtra > 0 {
								st.spend(CatCPUUpdate, m.masterExtra)
							}
						}
					}}}}
		}}
}

// syncSGDWire prepares the gradient message plan of a data-parallel run:
// the run plan, or the packed single-residual plan plus per-worker
// error-feedback quantizers under Config.Compression.
func (rc *runContext) syncSGDWire() (comm.Plan, comm.WireFunc, []*quant.Quantizer) {
	cfg := rc.cfg
	quantizers := perWorker(cfg, quant.New, len(rc.center))
	if cfg.Compression == quant.None {
		return rc.plan, nil, quantizers
	}
	// Compressed gradients travel as one packed message (the residual
	// layout of 1-bit SGD); each message's wire size is the scheme's.
	plan := comm.Plan{LayerBytes: []int64{rc.paramBytes}, Packed: true}
	wire := func(elems int) int64 { return quant.WireBytes(cfg.Compression, elems) }
	return plan, wire, quantizers
}

// SyncSGD is synchronous data-parallel SGD: gradients are allreduced under
// Config.Schedule (tree by default) and all replicas take the same averaged
// step. The center weight is the (identical) replica weight. Low-precision
// gradients (§3.4 extension) quantize per worker with error feedback; the
// compressed wire size is charged on every simulated message the schedule
// sends. With Config.Overlap the allreduce streams: each ~BucketBytes
// bucket's collective forks at its gradient-ready instant during the
// backward walk, so its wire time hides under the remaining backprop — same
// schedule per bucket, reduced values bit-identical to the monolithic path.
func SyncSGD(cfg Config) (Result, error) {
	return runRow("sync-sgd", cfg, func(rc *runContext, env *sim.Env) frame {
		cfg := rc.cfg
		topo := cfg.Platform.topology(env, cfg.Workers, true)
		rc.installChaos(topo)
		plan, wire, quantizers := rc.syncSGDWire()
		endpoint := comm.NewCommunicator(topo, comm.CommConfig{
			Parties: comm.Ranks(cfg.Workers), Plan: plan, Schedule: cfg.Schedule, Wire: wire,
		}).Endpoint
		pa := newPartialAgg(rc, topo, wire) // nil unless FaultPlan.PartialK is set
		return rc.gradRow(env, topo, endpoint, pa, plan, quantizers, func() float64 { return topo.RetryWait(0) })
	})
}

// gradRow builds the data-parallel SGD row over the given collective
// endpoints (flat or hierarchical — bit-identical by construction) or, with
// pa set, the partial-aggregation gather. retryWait reads the coordinating
// rank's cumulative sender-side retry time.
func (rc *runContext) gradRow(env *sim.Env, topo *comm.Topology, endpoint func(rank int) *comm.Endpoint, pa *partialAgg, plan comm.Plan, quantizers []*quant.Quantizer, retryWait func() float64) program {
	cfg := rc.cfg
	// The hybrid comm layout (empty in dense mode): SFB layers leave the
	// bucketed allreduce stream and ride factor allgathers of their own;
	// their reconstruction replays each rank's gradient computation in rank
	// order, so every path ends with gradients bit-identical to the dense
	// allreduce.
	hy := rc.hybridRun(plan)
	sp := rc.newStream(plan, hy.skip)
	nb, nsfb := sp.bz.NumBuckets(), len(hy.segs)
	return program{topo: topo, dataXfer: rc.dataXfer, cat: CatCPUGPUParam, drainCat: CatCPUGPUParam,
		rank: func(i int, st *step) rankProgram {
			w := rc.workers[i]
			x := &gradExchange{st: st, ep: endpoint(i), w: w, grads: w.net.Grads, q: quantizers[i],
				qStep: -1, hy: hy, outs: make([][]comm.Factors, nsfb), nb: nb, perIter: 1, retryWait: retryWait}
			r := rankProgram{name: fmt.Sprintf("gpu%d", i), compute: rc.wholeGradient(w), markDead: x.ep.MarkDead}
			exchange := x.inline
			switch { // the support table refuses Overlap with PartialK, so the first two never meet
			case cfg.Overlap:
				x.crew = newBucketCrew(env, r.name, maxInFlightBuckets)
				x.perIter = nb + nsfb
				r.compute, exchange = rc.streamedGradient(sp, w, x.onBucket, x.onFactor), x.join
			case pa != nil:
				x.collect = func(st *step) { pa.allReduce(st.p, st.t, i, x.grads) }
				r.markDead = pa.markDead
			case nsfb > 0:
				x.collect, x.perIter = x.collectHybrid, len(hy.denseRuns)+nsfb
			default: // the monolithic allreduce
				x.collect = func(st *step) { x.ep.AllReduce(st.p, st.t, x.grads) }
			}
			r.stages = []stage{{every: 1, master: true, exchange: exchange,
				update: func(st *step) {
					// Every live replica takes the same averaged step; the
					// divisor is the live count once a rank has died.
					lr := cfg.LR / float32(st.live)
					for k, g := range x.grads {
						w.net.Params[k] -= lr * g
					}
					st.spend(CatGPUUpdate, rc.workerUpdate)
					if st.root {
						copy(rc.center, w.net.Params)
					}
				}}}
			return r
		}}
}
