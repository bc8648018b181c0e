package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/hw"
	"scaledl/internal/sim"
	"scaledl/internal/tensor"
)

// KNLClusterConfig configures Algorithm 4 of the paper: Communication-
// Efficient EASGD on a KNL cluster. One simulated process runs per node,
// and the broadcast and tree reduction execute as real message waves over
// the fabric through the collective engine — the closest structural
// analogue of the paper's MPI code.
type KNLClusterConfig struct {
	// Config supplies the workload, hyperparameters and budget. The
	// Platform's Worker device models one KNL node; parameter traffic uses
	// Fabric below rather than the platform links. Config.Schedule selects
	// the collective pattern (tree by default).
	Config
	// Fabric is the interconnect between nodes (e.g. Cori's Aries).
	Fabric comm.Transferer
}

// KNLClusterEASGD runs Algorithm 4: every KNL node holds a local weight
// and a full data copy; each iteration all nodes compute gradients in
// parallel, node 1 broadcasts the center weight W̄ while a binomial tree
// reduces ΣW_j to it, every node applies Equation (1) and the master
// applies Equation (2). It is the Sync EASGD row of the step frame
// (elasticRow, sync.go) with four cells changed: the ranks sit on a uniform
// fabric, sample their batch from local memory (no data copy on the
// timeline), KNL1's Equation (2) runs in line after the workers' update,
// and Config.Overlap decides whether the broadcast streams beneath compute.
// The chip-local partition sums bypass the guarded message path, so the
// support table admits only timing faults here.
func KNLClusterEASGD(kcfg KNLClusterConfig) (Result, error) {
	return runRow("knl-cluster-easgd", kcfg.Config, func(rc *runContext, env *sim.Env) frame {
		cfg := rc.cfg
		fabric := kcfg.Fabric
		if fabric == nil {
			fabric = hw.Aries
		}
		topo := comm.NewUniform(env, cfg.Workers, fabric)
		// The plan keeps the per-layer segment structure under the packed
		// single-message layout: monolithic collectives still move one
		// message per hop (packed plans collapse to a single wire segment),
		// while the streaming pipeline can coalesce layers into buckets along
		// the same boundaries.
		plan := comm.Plan{LayerBytes: rc.plan.LayerBytes, Packed: true}
		cm := comm.NewCommunicator(topo, comm.CommConfig{
			Parties: comm.Ranks(cfg.Workers), Plan: plan, Schedule: cfg.Schedule,
		})
		return rc.elasticRow(env, elasticProgram{topo: topo, endpoint: cm.Endpoint, plan: plan,
			overlap: cfg.Overlap, procName: "knl-rank%d", cat: CatGPUGPUParam, masterExtra: rc.masterUpdate})
	})
}

// KNLClusterWeakScaling runs the Algorithm 4 rank program in size-only
// mode (the same message waves, no payloads) to measure per-iteration time
// at a given node count for an arbitrary model size — the executable
// counterpart of Table 4's analytic model. It returns the simulated
// seconds per iteration.
func KNLClusterWeakScaling(nodes int, paramBytes int64, computePerIter float64, fabric comm.Transferer, iters int) (float64, error) {
	if nodes < 1 || iters < 1 {
		return 0, fmt.Errorf("core: nodes and iters must be >= 1")
	}
	env := sim.NewEnv()
	defer env.Close()
	topo := comm.NewUniform(env, nodes, fabric)
	cm := comm.NewCommunicator(topo, comm.CommConfig{
		Parties: comm.Ranks(nodes),
		Plan:    comm.Plan{LayerBytes: []int64{paramBytes}, Packed: true},
	})
	for id := 0; id < nodes; id++ {
		id := id
		ep := cm.Endpoint(id)
		env.Spawn(fmt.Sprintf("ws-rank%d", id), func(p *sim.Proc) {
			for t := 0; t < iters; t++ {
				p.Delay(computePerIter)
				ep.BroadcastSize(p, 2*t, 0)
				ep.ReduceSize(p, 2*t+1, 0)
			}
		})
	}
	end := env.Run()
	return end / float64(iters), nil
}

// Elastic center drift: a diagnostic used by tests and examples — the L2
// distance between the center and the mean of the local weights, which
// elastic averaging keeps bounded.
func CenterDrift(center []float32, locals ...[]float32) float64 {
	if len(locals) == 0 {
		return 0
	}
	mean := make([]float32, len(center))
	comm.Average(mean, locals...)
	tensor.Sub(mean, mean, center)
	return tensor.Norm2(mean)
}
