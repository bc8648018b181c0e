package harness

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
)

// RunAblation isolates each co-design factor the paper stacks up in §5.2
// and §6.1, plus two design-space studies:
//
//  1. step-by-step speedup of the Sync EASGD chain at equal sample budgets
//     (tree reduction, then GPU-resident center, then overlap);
//  2. packed-vs-per-layer transfer cost on each Table 2 network for the
//     paper's real model sizes;
//  3. tree vs ring allreduce and their crossover, justifying the paper's
//     tree choice for latency-sensitive sizes.
func RunAblation(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{ID: "ablation", Title: "Co-design ablation", PaperRef: "Sections 5.2, 6.1"}

	// (1) Factor chain at equal samples: RR 4k iters ≡ sync k rounds.
	rounds := o.scaled(60)
	type step struct {
		name   string
		method string
		iters  int
		packed bool
		factor string
	}
	steps := []step{
		{"original-easgd (round-robin, per-layer, pageable)", "original-easgd", rounds * 4, false, "baseline"},
		{"+ tree reduction & packing (sync-easgd1)", "sync-easgd1", rounds, true, "Θ(P)→Θ(log P), 1 msg"},
		{"+ weights on GPU (sync-easgd2)", "sync-easgd2", rounds, true, "no host staging"},
		{"+ comm/compute overlap (sync-easgd3)", "sync-easgd3", rounds, true, "hide broadcast"},
	}
	t := r.NewTable("cumulative co-design factors (equal sample budgets)",
		"Configuration", "factor", "time(s)", "step speedup", "cumulative")
	var prev, base float64
	for i, s := range steps {
		cfg := baseConfig(o, s.iters, s.packed)
		res, err := core.Methods[s.method](cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.method, err)
		}
		tt := res.SimTime
		if i == 0 {
			base, prev = tt, tt
		}
		t.AddRow(s.name, s.factor, fmt.Sprintf("%.4f", tt),
			fmt.Sprintf("%.2fx", prev/tt), fmt.Sprintf("%.2fx", base/tt))
		prev = tt
	}
	r.AddNote("paper: Sync EASGD1 = 3.7x over Original EASGD, EASGD2 = 1.3x over EASGD1, EASGD3 = 1.1x over EASGD2 (5.3x total)")

	// (2) Packed vs per-layer transfers for the paper's real models on each
	// Table 2 interconnect.
	t2 := r.NewTable("one model transfer: per-layer vs packed (ms)",
		"Model", "Network", "per-layer", "packed", "speedup")
	models := []nn.ModelCost{nn.LeNetCost(), nn.AlexNetCost(), nn.GoogleNetCost(), nn.VGG19Cost()}
	for _, m := range models {
		var layerBytes []int64
		for _, s := range m.LayerParamSizes() {
			layerBytes = append(layerBytes, s*4)
		}
		for _, link := range []hw.Link{hw.MellanoxFDR, hw.Intel10GbE} {
			per := comm.Plan{LayerBytes: layerBytes, GatherBW: 6e9}.TransferTime(link)
			packed := comm.Plan{LayerBytes: layerBytes, Packed: true}.TransferTime(link)
			t2.AddRow(m.Name, link.Name,
				fmt.Sprintf("%.3f", per*1e3), fmt.Sprintf("%.3f", packed*1e3),
				fmt.Sprintf("%.2fx", per/packed))
		}
	}

	// (3) Tree vs ring allreduce crossover on FDR InfiniBand.
	t3 := r.NewTable("tree vs ring allreduce on FDR IB, P=16 (ms)",
		"size", "tree", "ring", "winner")
	for _, n := range []int64{64 << 10, 1 << 20, 28 << 20, 256 << 20, 575 << 20} {
		tree := comm.TreeAllReduceTime(hw.MellanoxFDR, n, 16)
		ring := comm.RingAllReduceTime(hw.MellanoxFDR, n, 16)
		winner := "tree"
		if ring < tree {
			winner = "ring"
		}
		t3.AddRow(byteSize(n), fmt.Sprintf("%.3f", tree*1e3), fmt.Sprintf("%.3f", ring*1e3), winner)
	}
	cross := comm.CrossoverBytes(hw.MellanoxFDR, 16)
	r.AddNote("the paper replaced the round-robin Θ(P) exchange with a tree, a %0.1fx win at P=16 regardless of size; the ring allreduce (not used by the paper) is a further bandwidth-side refinement that wins above %s on FDR",
		comm.LinearReduceTime(hw.MellanoxFDR, 1<<20, 16)/comm.TreeReduceTime(hw.MellanoxFDR, 1<<20, 16), byteSize(cross))

	// (4) The message-level engine: every allreduce schedule run as actual
	// simulated message waves (selected by name), next to its analytic
	// α-β oracle. The synchronized schedules match the oracle exactly on
	// the contention-free fabric; the pipelined chain has no closed form —
	// its chunk overlap is precisely what the formulas cannot express.
	t5 := r.NewTable("simulated allreduce schedules on FDR IB, P=16, LeNet |W| (ms)",
		"schedule", "simulated", "analytic oracle")
	lenetBytes := int64(431080 * 4)
	for _, name := range comm.Schedules() {
		simT, err := SimulateAllReduce(name, hw.MellanoxFDR, lenetBytes, 16)
		if err != nil {
			return nil, err
		}
		sched, _ := comm.ParseSchedule(name)
		oracle := "-"
		if an, ok := sched.AnalyticAllReduceTime(hw.MellanoxFDR, lenetBytes, 16); ok {
			oracle = fmt.Sprintf("%.4f", an*1e3)
		}
		t5.AddRow(name, fmt.Sprintf("%.4f", simT*1e3), oracle)
	}

	// (5) Hierarchical (two-level) allreduce on the paper's 16-node × 4-GPU
	// cluster shape: local PCIe-switch combine, then the fabric tree.
	t4 := r.NewTable("flat vs hierarchical allreduce, 16 nodes × 4 GPUs on FDR IB (ms)",
		"Model", "flat over fabric", "hierarchical", "speedup")
	for _, m := range models {
		n := m.ParamBytes()
		flat := comm.TreeAllReduceTime(hw.MellanoxFDR, n, 64)
		hier := comm.HierarchicalAllReduceTime(hw.GPUPeer, hw.MellanoxFDR, n, 16, 4)
		t4.AddRow(m.Name, fmt.Sprintf("%.3f", flat*1e3), fmt.Sprintf("%.3f", hier*1e3),
			fmt.Sprintf("%.2fx", flat/hier))
	}
	r.AddNote("the hierarchy keeps only one rank per node on the fabric — the design of the paper's acknowledged multi-node multi-GPU follow-up")
	return r, nil
}
