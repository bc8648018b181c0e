package scaledl

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the substrates. Each
// experiment benchmark regenerates its artifact through the harness and
// reports the headline quantity as a custom metric; run
//
//	go test -bench=. -benchmem
//
// to produce them all, or use cmd/scaledl-bench to print the full tables.

import (
	"strconv"
	"strings"
	"testing"

	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
)

// benchOptions keeps per-iteration cost modest: budgets scale down but
// every experiment still runs end to end.
var benchOptions = Options{Seed: 1, Scale: 0.5}

func runExperimentBench(b *testing.B, id string, metric func(*Report) (string, float64)) {
	b.Helper()
	if testing.Short() {
		b.Skipf("experiment %s trains real models; skipped in -short mode", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := RunExperiment(id, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			if name, v := metric(rep); name != "" {
				b.ReportMetric(v, name)
			}
		}
		if i == 0 && testing.Verbose() {
			b.Logf("\n%s", rep)
		}
	}
}

// parseSuffixed parses "3.45x" or "92%" style cells.
func parseSuffixed(cell, suffix string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, suffix), 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkTable2AlphaBeta regenerates Table 2 (α-β network model) and
// reports the Θ(P)/Θ(log P) advantage at P=64.
func BenchmarkTable2AlphaBeta(b *testing.B) {
	runExperimentBench(b, "table2", func(r *Report) (string, float64) {
		t := r.Tables[3] // tree-vs-round-robin table, row P=64
		return "tree-speedup-p64", parseSuffixed(t.Cell(2, 3), "x")
	})
}

// BenchmarkTable3Breakdown regenerates Table 3 (time breakdown of EASGD
// variants at equal accuracy) and reports Sync EASGD3's speedup over
// Original EASGD (paper: 5.3×).
func BenchmarkTable3Breakdown(b *testing.B) {
	runExperimentBench(b, "table3", func(r *Report) (string, float64) {
		t := r.Tables[0]
		return "sync3-speedup", parseSuffixed(t.Cell(len(t.Rows)-1, len(t.Columns)-1), "x")
	})
}

// BenchmarkFig11BreakdownChart regenerates Figure 11 (the chart view of
// Table 3).
func BenchmarkFig11BreakdownChart(b *testing.B) {
	runExperimentBench(b, "fig11", nil)
}

// BenchmarkFig6AsyncEASGD regenerates Figure 6.1 (Async EASGD vs Async SGD).
func BenchmarkFig6AsyncEASGD(b *testing.B) {
	runExperimentBench(b, "fig6.1", nil)
}

// BenchmarkFig6AsyncMEASGD regenerates Figure 6.2 (Async MEASGD vs MSGD).
func BenchmarkFig6AsyncMEASGD(b *testing.B) {
	runExperimentBench(b, "fig6.2", nil)
}

// BenchmarkFig6HogwildEASGD regenerates Figure 6.3 (Hogwild EASGD vs SGD).
func BenchmarkFig6HogwildEASGD(b *testing.B) {
	runExperimentBench(b, "fig6.3", nil)
}

// BenchmarkFig6SyncEASGD regenerates Figure 6.4 (Sync vs Original EASGD).
func BenchmarkFig6SyncEASGD(b *testing.B) {
	runExperimentBench(b, "fig6.4", nil)
}

// BenchmarkFig8Overall regenerates Figure 8 (all methods, log10 error rate
// versus time).
func BenchmarkFig8Overall(b *testing.B) {
	runExperimentBench(b, "fig8", nil)
}

// BenchmarkFig10PackedComm regenerates Figure 10 and reports the packed-
// over-per-layer speedup at equal iterations.
func BenchmarkFig10PackedComm(b *testing.B) {
	runExperimentBench(b, "fig10", func(r *Report) (string, float64) {
		t := r.Tables[1]
		return "packed-speedup", parseSuffixed(t.Cell(1, 4), "x")
	})
}

// BenchmarkFig12KNLPartition regenerates Figure 12 and reports the 16-part
// speedup (paper: 3.3×).
func BenchmarkFig12KNLPartition(b *testing.B) {
	runExperimentBench(b, "fig12", func(r *Report) (string, float64) {
		t := r.Tables[0]
		return "speedup-16parts", parseSuffixed(t.Cell(3, 5), "x")
	})
}

// BenchmarkFig13WeakScalingBenefit regenerates Figure 13.
func BenchmarkFig13WeakScalingBenefit(b *testing.B) {
	runExperimentBench(b, "fig13", nil)
}

// BenchmarkTable4WeakScaling regenerates Table 4 and reports the GoogleNet
// weak-scaling efficiency at 2176 cores (paper: 92.3%).
func BenchmarkTable4WeakScaling(b *testing.B) {
	runExperimentBench(b, "table4", func(r *Report) (string, float64) {
		return "googlenet-eff-2176c", parseSuffixed(r.Tables[0].Cell(5, 2), "%")
	})
}

// BenchmarkBatchSizeImpact regenerates the §7.2 batch-size study.
func BenchmarkBatchSizeImpact(b *testing.B) {
	runExperimentBench(b, "batch", nil)
}

// BenchmarkAblationSyncSteps regenerates the co-design ablation.
func BenchmarkAblationSyncSteps(b *testing.B) {
	runExperimentBench(b, "ablation", nil)
}

// BenchmarkLowPrecision regenerates the §3.4 future-work experiment
// (1-bit/uint8 gradient compression).
func BenchmarkLowPrecision(b *testing.B) {
	runExperimentBench(b, "lowprec", nil)
}

// BenchmarkKNLModes regenerates the MCDRAM/cluster-mode ablation.
func BenchmarkKNLModes(b *testing.B) {
	runExperimentBench(b, "knlmodes", nil)
}

// BenchmarkHierCluster regenerates the hierarchical two-level cluster
// study (collective sweep + hier-sync-sgd/easgd training).
func BenchmarkHierCluster(b *testing.B) {
	runExperimentBench(b, "hier", nil)
}

// ---- substrate micro-benchmarks ----

// BenchmarkTinyCNNIteration measures the experiment stand-in's iteration.
func BenchmarkTinyCNNIteration(b *testing.B) {
	train, _ := SyntheticMNIST(1, 256, 64)
	net := TinyCNN(Shape{C: 1, H: 28, W: 28}, 10).Build(1)
	batch := 32
	x := train.Images[:batch*train.Spec.SampleDim()]
	labels := train.Labels[:batch]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		net.LossAndGrad(x, labels, batch)
		net.SGDStep(0.01)
	}
}

// BenchmarkSyncEASGD3Round measures one full simulated Sync EASGD3 round
// (4 workers, real math plus simulator overhead).
func BenchmarkSyncEASGD3Round(b *testing.B) {
	train, test := SyntheticMNIST(1, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Def: TinyCNN(Shape{C: 1, H: 28, W: 28}, 10), Train: train, Test: test,
			Workers: 4, Batch: 32, LR: 0.05, Iterations: 1, Seed: int64(i + 1),
			Platform: DefaultGPUPlatform(true),
		}
		if _, err := Train("sync-easgd3", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeVsLinearReduce measures the collective cost model itself.
func BenchmarkTreeVsLinearReduce(b *testing.B) {
	n := int64(431080 * 4) // LeNet bytes
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += comm.TreeReduceTime(hw.MellanoxFDR, n, 64)
		sink += comm.LinearReduceTime(hw.MellanoxFDR, n, 64)
	}
	_ = sink
}

// BenchmarkModelCostTables measures cost-table construction (used per run).
func BenchmarkModelCostTables(b *testing.B) {
	var params int64
	for i := 0; i < b.N; i++ {
		params += nn.GoogleNetCost().TotalParams()
		params += nn.VGG19Cost().TotalParams()
		params += nn.AlexNetCost().TotalParams()
	}
	_ = params
}

// BenchmarkDiscreteEventThroughput measures raw simulator event throughput
// with the parameter-server pattern (1 master + 4 workers).
func BenchmarkDiscreteEventThroughput(b *testing.B) {
	train, test := SyntheticMNIST(1, 128, 32)
	spec := Config{
		Def: TinyCNN(Shape{C: 1, H: 28, W: 28}, 10), Train: train, Test: test,
		Workers: 4, Batch: 1, LR: 0.05, Iterations: 50, Seed: 1,
		Platform: DefaultGPUPlatform(true),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AsyncSGD(spec); err != nil {
			b.Fatal(err)
		}
	}
}
