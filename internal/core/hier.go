package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/sim"
)

// This file is the hierarchical (multi-node) configuration path: the two
// paper algorithms most worth scaling past one machine, run over
// Config.Nodes × Config.GPUsPerNode workers on a composed PCIe-trees-under-
// fabric topology (Platform.hierTopology / comm.NewMultiLevel).
//
//	hier-sync-sgd    — synchronous data parallelism whose gradient
//	  allreduce is the two-level HierAllReduce (intra-node reduce →
//	  inter-node allreduce among leaders → intra-node broadcast). The
//	  worker loop is *shared* with the flat SyncSGD (runSyncSGDWorkers
//	  drives a gradAllReducer), and the hierarchical collective is
//	  bit-identical to ReduceSum, so the training mathematics is exactly
//	  the flat run's — including the Overlap/BucketBytes streaming
//	  pipeline, whose per-bucket Range collectives stream hierarchically
//	  for free.
//	hier-sync-easgd  — node-group elastic averaging: every worker runs
//	  local SGD; every TauLocal steps a node's workers sync with their
//	  group center over the intra-node links (broadcast + reduce +
//	  elastic updates — the Sync EASGD round, scoped to one node); every
//	  TauGlobal steps the group centers sync with a replicated global
//	  center over the fabric (leader allreduce). This is the two-level
//	  τ structure Poseidon-style hybrid communication and the EASGD
//	  paper's communication-period analysis point at: the fabric sees
//	  1/TauGlobal of the traffic a flat EASGD would put on it.

// hierSetup builds the run's composed topology and two-level communicator;
// hostStaged selects the intra-node GPU↔GPU transfer mode exactly as in
// the flat algorithms.
func hierSetup(rc *runContext, env *sim.Env, plan comm.Plan, wire comm.WireFunc, hostStaged bool) (*comm.MultiLevel, *comm.HierCommunicator) {
	cfg := rc.cfg
	ml := cfg.Platform.hierTopology(env, cfg.Nodes, cfg.GPUsPerNode, hostStaged)
	locals := make([]int, cfg.GPUsPerNode)
	for i := range locals {
		locals[i] = i
	}
	hc := comm.NewHierCommunicator(ml.Topology(), comm.HierConfig{
		Groups: ml.Groups(locals...),
		Plan:   plan,
		Intra:  cfg.Schedule,
		Inter:  cfg.HierSchedule,
		Wire:   wire,
	})
	return ml, hc
}

// checkHier rejects configs that did not select a hierarchical cluster.
func checkHier(cfg Config, method string) error {
	if cfg.Nodes < 1 || cfg.GPUsPerNode < 1 {
		return fmt.Errorf("core: %s needs Nodes and GPUsPerNode >= 1 (got %d x %d)", method, cfg.Nodes, cfg.GPUsPerNode)
	}
	return nil
}

// HierSyncSGD is synchronous data-parallel SGD over Nodes × GPUsPerNode
// workers with the two-level hierarchical allreduce. Mathematics is
// bit-identical to SyncSGD at the same worker count, schedule pair and
// bucketing notwithstanding — only where the bytes travel changes.
func HierSyncSGD(cfg Config) (Result, error) {
	if err := checkHier(cfg, "hier-sync-sgd"); err != nil {
		return Result{}, err
	}
	// Semantic loss/corruption and fail-continue ride the same guarded
	// collective path as the flat run; only the flat-topology-keyed knobs
	// are out of scope here.
	if err := cfg.Faults.requireFlatLinks("hier-sync-sgd"); err != nil {
		return Result{}, err
	}
	if cfg.Faults.PartialK > 0 {
		return Result{}, fmt.Errorf("core: hier-sync-sgd does not support partial aggregation (PartialK); use sync-sgd")
	}
	rc, err := newRunContext(cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = rc.cfg
	env := sim.NewEnv()
	defer env.Close()

	plan, wire, quantizers := rc.syncSGDWire()
	ml, hc := hierSetup(rc, env, plan, wire, true)
	topo := ml.Topology()
	rc.installChaos(topo, nil) // BadLinks rejected above; no rank→node map needed
	rootNode := ml.GlobalID(0, 0)
	end := rc.runSyncSGDWorkers(env, plan, commEndpoints(cfg.Workers, hc.Endpoint), quantizers, topo.BytesMoved,
		func() float64 { return topo.RetryWait(rootNode) })
	return rc.finish("hier-sync-sgd", end), nil
}

// elasticPull applies W ← W − a·(W − C), the elastic attraction of
// Equation (1) with the gradient term already applied by the local step.
func elasticPull(params, center []float32, a float32) {
	for i := range params {
		params[i] -= a * (params[i] - center[i])
	}
}

// HierSyncEASGD is the node-group EASGD of the hierarchical path: local
// SGD between syncs, intra-node elastic group averaging every TauLocal
// steps, inter-node elastic center averaging among group leaders every
// TauGlobal steps. The reported center is the replicated global center
// (refreshed from group 0's view between global syncs, so accuracy probes
// track training between fabric rounds).
func HierSyncEASGD(cfg Config) (Result, error) {
	if err := checkHier(cfg, "hier-sync-easgd"); err != nil {
		return Result{}, err
	}
	if err := cfg.Faults.requireNoMembershipChange("hier-sync-easgd"); err != nil {
		return Result{}, err
	}
	if err := cfg.Faults.requireFlatLinks("hier-sync-easgd"); err != nil {
		return Result{}, err
	}
	rc, err := newRunContext(cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = rc.cfg
	env := sim.NewEnv()
	defer env.Close()

	// Group syncs ride peer DMA inside each node (the EASGD2/3 transfer
	// mode); center syncs ride the fabric between leaders.
	ml, hc := hierSetup(rc, env, rc.plan, nil, false)
	topo := ml.Topology()
	rc.installChaos(topo, nil)
	n := len(rc.center)
	nodes, perNode := cfg.Nodes, cfg.GPUsPerNode

	// Per-group leader state: the group center C_g and the replicated
	// global center W̄ (identical at every leader: the leader allreduce is
	// bit-identical across ranks, so the replicas never drift).
	groupCenter := make([][]float32, nodes)
	globalCenter := make([][]float32, nodes)
	groupSum := make([][]float32, nodes)
	interBuf := make([][]float32, nodes)
	for g := 0; g < nodes; g++ {
		groupCenter[g] = append([]float32(nil), rc.center...)
		globalCenter[g] = append([]float32(nil), rc.center...)
		groupSum[g] = make([]float32, n)
		interBuf[g] = make([]float32, n)
	}
	centerBufs := make([][]float32, cfg.Workers)
	for i := range centerBufs {
		centerBufs[i] = make([]float32, n)
	}
	losses := make([]float64, cfg.Workers)
	bar := sim.NewBarrier(env, "iteration", cfg.Workers)
	// evalBar synchronizes eval steps before rank 0 reads the loss slice:
	// without it, workers in other node groups may not have committed this
	// step's loss yet (no collective orders them relative to rank 0 on
	// non-sync steps). Free in simulated time, joined only on eval steps —
	// uniformly across workers, so the join pattern stays deterministic.
	evalBar := sim.NewBarrier(env, "eval", cfg.Workers)
	a := cfg.LR * cfg.Rho

	for r := 0; r < cfg.Workers; r++ {
		r := r
		w := rc.workers[r]
		g, local := hc.GroupOf(r), hc.LocalOf(r)
		iep := hc.Intra(g).Endpoint(local)
		const leaderLocal = 0
		leader := local == leaderLocal
		env.Spawn(fmt.Sprintf("node%d.gpu%d", g, local), func(p *sim.Proc) {
			for t := 0; t < cfg.Iterations; t++ {
				s := t + 1
				rc.injectFaults(p, r, s)
				// Local step: minibatch copy, gradient, plain SGD.
				p.Delay(rc.dataXfer)
				join := w.beginGradient()
				ct := rc.computeDelay(r, s)
				p.Delay(ct)
				losses[r] = join()
				w.sgdLocal(cfg.LR)
				p.Delay(rc.workerUpdate)
				if r == 0 {
					rc.bd.Add(CatCPUGPUData, rc.dataXfer)
					rc.bd.Add(CatForwardBackward, ct)
					rc.bd.Add(CatGPUUpdate, rc.workerUpdate)
				}

				if s%cfg.TauLocal == 0 {
					// Group sync: broadcast C_g, reduce ΣW_j to the leader,
					// elastic pulls on workers and the group center — the
					// Sync EASGD round scoped to one node's PCIe tree.
					base := 2 * t
					tC := p.Now()
					if leader {
						copy(centerBufs[r], groupCenter[g])
					}
					iep.Broadcast(p, base, leaderLocal, centerBufs[r])
					if leader {
						copy(groupSum[g], w.net.Params)
						iep.Reduce(p, base+1, leaderLocal, groupSum[g])
					} else {
						iep.Reduce(p, base+1, leaderLocal, w.net.Params)
					}
					if r == 0 {
						rc.bd.Add(CatGPUGPUParam, p.Now()-tC)
					}
					elasticPull(w.net.Params, centerBufs[r], a)
					p.Delay(rc.workerUpdate)
					if leader {
						// C_g ← C_g + ηρ(ΣW − K·C_g), Equation (2) over the group.
						kf := float32(perNode)
						for k := range groupCenter[g] {
							groupCenter[g][k] += a * (groupSum[g][k] - kf*groupCenter[g][k])
						}
					}
					if r == 0 {
						rc.bd.Add(CatGPUUpdate, rc.workerUpdate)
						copy(rc.center, groupCenter[0])
					}
				}

				if s%cfg.TauGlobal == 0 && leader {
					// Center sync: leaders allreduce ΣC_g over the fabric
					// and every leader applies the identical global update —
					// the replicated center needs no extra broadcast.
					tF := p.Now()
					preInter := topo.BytesMoved()
					copy(interBuf[g], groupCenter[g])
					hc.Inter().Endpoint(g).AllReduce(p, t, interBuf[g])
					if r == 0 {
						// The fabric column: inter-node parameter time AND
						// traffic are charged to cpu-gpu para in hierarchical
						// runs. The byte sample around rank 0's collective
						// covers the whole fabric round: the workers are in
						// lockstep (identical compute times), so no intra
						// traffic is in flight during it.
						rc.bd.Add(CatCPUGPUParam, p.Now()-tF)
						rc.bd.AddBytes(CatCPUGPUParam, topo.BytesMoved()-preInter)
					}
					nf := float32(nodes)
					for k := range globalCenter[g] {
						globalCenter[g][k] += a * (interBuf[g][k] - nf*globalCenter[g][k])
					}
					elasticPull(groupCenter[g], globalCenter[g], a)
					p.Delay(rc.masterUpdate)
					if r == 0 {
						rc.bd.Add(CatCPUUpdate, rc.masterUpdate)
						copy(rc.center, globalCenter[0])
						rc.updates++
					}
				}

				if cfg.EvalEvery > 0 && s%cfg.EvalEvery == 0 {
					// Every worker has committed this step's loss once the
					// eval barrier releases.
					p.Wait(evalBar)
				}
				if r == 0 {
					rc.samples += int64(cfg.Batch * cfg.Workers)
					if cfg.EvalEvery > 0 && s%cfg.EvalEvery == 0 {
						var roundLoss float64
						for _, l := range losses {
							roundLoss += l
						}
						roundLoss /= float64(cfg.Workers)
						rc.recordPoint(s, p.Now(), roundLoss)
					}
				}
				tB := p.Now()
				p.Wait(bar)
				if r == 0 {
					// Rank 0 (group 0's leader) owns the longest path except
					// when another group's tail drains later; the residual
					// barrier wait is fabric-side communication.
					rc.bd.Add(CatCPUGPUParam, p.Now()-tB)
					rc.bd.AddBytes(CatGPUGPUParam, topo.BytesMoved()-rc.bd.ParamTraffic())
				}
				if rc.stopped {
					return
				}
			}
		})
	}

	end := env.Run()
	return rc.finish("hier-sync-easgd", end), nil
}
