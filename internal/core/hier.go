package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/sim"
)

// This file is the hierarchical (multi-node) configuration path: the two
// paper algorithms most worth scaling past one machine, run over
// Config.Nodes × Config.GPUsPerNode workers on a composed PCIe-trees-under-
// fabric topology (Platform.hierTopology / comm.NewMultiLevel). Both are
// rows of the step frame (step.go):
//
//	hier-sync-sgd    — sync-sgd's row (gradRow) over hierarchical endpoints:
//	  the gradient allreduce is the two-level HierAllReduce (intra-node
//	  reduce → inter-node allreduce among leaders → intra-node broadcast),
//	  bit-identical to ReduceSum, so the training mathematics is exactly
//	  the flat run's — including the Overlap/BucketBytes streaming pipeline,
//	  whose per-bucket Range collectives stream hierarchically for free.
//	hier-sync-easgd  — node-group elastic averaging, three stages per step:
//	  a local SGD step (no exchange); every TauLocal steps the node's
//	  elasticCenter exchange with its group center over the intra-node links
//	  + the elastic pull — the Sync EASGD round scoped to one node; every
//	  TauGlobal steps the leaders' fabric allreduce of the group centers +
//	  the replicated global center's update. This is the two-level τ
//	  structure Poseidon-style hybrid communication and the EASGD paper's
//	  communication-period analysis point at: the fabric sees 1/TauGlobal of
//	  the traffic a flat EASGD would put on it.

// hierSetup builds the run's composed topology and two-level communicator;
// hostStaged selects the intra-node GPU↔GPU transfer mode exactly as in
// the flat algorithms.
func hierSetup(rc *runContext, env *sim.Env, plan comm.Plan, wire comm.WireFunc, hostStaged bool) (*comm.MultiLevel, *comm.HierCommunicator) {
	cfg := rc.cfg
	ml := cfg.Platform.hierTopology(env, cfg.Nodes, cfg.GPUsPerNode, hostStaged)
	hc := comm.NewHierCommunicator(ml.Topology(), comm.HierConfig{
		Groups: ml.Groups(comm.Ranks(cfg.GPUsPerNode)...),
		Plan:   plan,
		Intra:  cfg.Schedule,
		Inter:  cfg.HierSchedule,
		Wire:   wire,
	})
	rc.installChaos(ml.Topology())
	return ml, hc
}

// HierSyncSGD is synchronous data-parallel SGD over Nodes × GPUsPerNode
// workers with the two-level hierarchical allreduce. Mathematics is
// bit-identical to SyncSGD at the same worker count, schedule pair and
// bucketing notwithstanding — only where the bytes travel changes. Semantic
// loss/corruption and fail-continue ride the same guarded collective path as
// the flat run.
func HierSyncSGD(cfg Config) (Result, error) {
	return runRow("hier-sync-sgd", cfg, func(rc *runContext, env *sim.Env) frame {
		plan, wire, quantizers := rc.syncSGDWire()
		ml, hc := hierSetup(rc, env, plan, wire, true)
		topo, rootNode := ml.Topology(), ml.GlobalID(0, 0)
		return rc.gradRow(env, topo, hc.Endpoint, nil, plan, quantizers,
			func() float64 { return topo.RetryWait(rootNode) })
	})
}

// HierSyncEASGD is the node-group EASGD of the hierarchical path: local
// SGD between syncs, intra-node elastic group averaging every TauLocal
// steps, inter-node elastic center averaging among group leaders every
// TauGlobal steps. The reported center is the replicated global center
// (refreshed from group 0's view between global syncs, so accuracy probes
// track training between fabric rounds).
func HierSyncEASGD(cfg Config) (Result, error) {
	return runRow("hier-sync-easgd", cfg, func(rc *runContext, env *sim.Env) frame {
		cfg := rc.cfg
		// Group syncs ride peer DMA inside each node (the EASGD2/3 transfer
		// mode); center syncs ride the fabric between leaders.
		ml, hc := hierSetup(rc, env, rc.plan, nil, false)
		topo := ml.Topology()
		a := cfg.LR * cfg.Rho
		// evalBar orders every rank's loss commit before rank 0 reads the
		// losses on an eval step: on non-sync steps no collective does. Free
		// in simulated time, joined uniformly, so the pattern stays
		// deterministic.
		evalBar := sim.NewBarrier(env, "eval", cfg.Workers)
		// The fabric column: inter-node time and traffic land in cpu-gpu
		// para, the residual barrier wait too (another group's tail draining
		// is fabric-side); everything else on the wire is intra-node.
		return program{topo: topo, dataXfer: rc.dataXfer, cat: CatGPUGPUParam, drainCat: CatCPUGPUParam,
			rank: func(r int, _ *step) rankProgram {
				w := rc.workers[r]
				g, local := hc.GroupOf(r), hc.LocalOf(r)
				const leaderLocal = 0
				// Leader state: the group center C_g and the replicated global
				// center W̄ (identical at every leader — the leader allreduce is
				// bit-identical across ranks, so the replicas never drift).
				var groupCenter, globalCenter, interBuf []float32
				if local == leaderLocal {
					groupCenter = append([]float32(nil), rc.center...)
					globalCenter = append([]float32(nil), rc.center...)
					interBuf = make([]float32, len(rc.center))
				}
				x := newElasticCenter(hc.Intra(g).Endpoint(local), leaderLocal, groupCenter, w.net.Params, nil, nil)
				stages := []stage{
					{every: 1, exchange: idle, update: func(st *step) {
						w.net.SGDStep(cfg.LR) // W ← W − η·G
						st.spend(CatGPUUpdate, rc.workerUpdate)
					}},
					{every: cfg.TauLocal,
						exchange: func(st *step) {
							tC := st.p.Now()
							x.begin(st)
							x.finish(st)
							st.charge(CatGPUGPUParam, st.p.Now()-tC)
						},
						update: func(st *step) {
							elasticPull(w.net.Params, x.buf, a)
							st.spend(CatGPUUpdate, rc.workerUpdate)
							if x.center != nil {
								centerStep(x.center, x.sum, a, float32(cfg.GPUsPerNode))
							}
							if st.root {
								copy(rc.center, x.center)
							}
						}},
				}
				if local == leaderLocal {
					iep := hc.Inter().Endpoint(g)
					stages = append(stages, stage{every: cfg.TauGlobal, master: true,
						exchange: func(st *step) {
							// Leaders allreduce ΣC_g over the fabric. The byte
							// sample around rank 0's collective covers the whole
							// fabric round: the workers are in lockstep, so no
							// intra traffic is in flight during it.
							tF, pre := st.p.Now(), topo.BytesMoved()
							copy(interBuf, groupCenter)
							iep.AllReduce(st.p, st.t, interBuf)
							st.charge(CatCPUGPUParam, st.p.Now()-tF)
							if st.root {
								rc.bd.AddBytes(CatCPUGPUParam, topo.BytesMoved()-pre)
							}
						},
						update: func(st *step) {
							// Every leader applies the identical global update —
							// the replicated center needs no extra broadcast.
							centerStep(globalCenter, interBuf, a, float32(cfg.Nodes))
							elasticPull(groupCenter, globalCenter, a)
							st.spend(CatCPUUpdate, rc.masterUpdate)
							if st.root {
								copy(rc.center, globalCenter)
							}
						}})
				}
				if cfg.EvalEvery > 0 {
					stages = append(stages, stage{every: cfg.EvalEvery, update: idle,
						exchange: func(st *step) {
							// Free among ranks in lockstep; behind a straggler the
							// root waits here, and that is drain like the
							// iteration barrier's.
							tB := st.p.Now()
							st.p.Wait(evalBar)
							st.charge(CatCPUGPUParam, st.p.Now()-tB)
						}})
				}
				return rankProgram{name: fmt.Sprintf("node%d.gpu%d", g, local),
					compute: rc.wholeGradient(w), stages: stages}
			}}
	})
}
