package harness

import (
	"fmt"

	"scaledl/internal/core"
)

// table3Target is the common test accuracy every EASGD variant must reach,
// the analogue of the paper's 0.988 on MNIST.
const table3Target = 0.95

// table3Row is one method's measurement.
type table3Row struct {
	name    string
	res     core.Result
	timeTo  float64 // simulated seconds to table3Target
	itersTo int     // master iterations to target
	reached bool
}

// runTable3Methods executes the five Table 3 rows: the two Original EASGD
// baselines on the legacy (per-layer, pageable) platform and the three Sync
// EASGD co-design steps on the packed platform, all to the same target
// accuracy. Round-robin interactions process one minibatch; sync rounds
// process four, so round-robin budgets are 4× larger plus slack for its
// slower convergence.
func runTable3Methods(o Options) ([]table3Row, error) {
	type spec struct {
		name   string
		iters  int
		every  int
		packed bool
	}
	specs := []spec{
		{"original-easgd*", o.scaled(1400), 25, false},
		{"original-easgd", o.scaled(1400), 25, false},
		{"sync-easgd1", o.scaled(350), 5, true},
		{"sync-easgd2", o.scaled(350), 5, true},
		{"sync-easgd3", o.scaled(350), 5, true},
	}
	var rows []table3Row
	for _, s := range specs {
		cfg := baseConfig(o, s.iters, s.packed)
		cfg.EvalEvery = s.every
		cfg.TargetAcc = table3Target // stop at the common accuracy, like the paper
		res, err := core.Methods[s.name](cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		row := table3Row{name: s.name, res: res}
		for _, pt := range res.Curve {
			if pt.TestAcc >= table3Target {
				row.timeTo = pt.SimTime
				row.itersTo = pt.Iter
				row.reached = true
				break
			}
		}
		if !row.reached {
			// Fall back to the full run so the table still renders.
			row.timeTo = res.SimTime
			row.itersTo = res.Iterations
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunTable3 reproduces Table 3: time and exposed-time breakdown for the
// EASGD variants at equal accuracy, with the comm-ratio collapse and the
// speedup over Original EASGD.
func RunTable3(o Options) (*Report, error) {
	o = o.withDefaults()
	rows, err := runTable3Methods(o)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "table3", Title: "Breakdown of time for EASGD variants", PaperRef: "Table 3"}
	t := r.NewTable(
		fmt.Sprintf("MNIST-regime, 4 GPUs, to test accuracy %.2f (simulated platform times)", table3Target),
		"Method", "accuracy", "iterations", "time(s)",
		"gpu-gpu para", "cpu-gpu data", "cpu-gpu para", "for/backward", "gpu update", "cpu update",
		"comm ratio", "speedup")

	var baseTime float64
	for _, row := range rows {
		if row.name == "original-easgd" {
			baseTime = row.timeTo
		}
	}
	for _, row := range rows {
		b := row.res.Breakdown
		acc := table3Target
		if !row.reached {
			acc = row.res.FinalAcc
		}
		speedup := "1.0x"
		if baseTime > 0 {
			speedup = fmt.Sprintf("%.1fx", baseTime/row.timeTo)
		}
		t.AddRow(
			row.name,
			fmt.Sprintf("%.3f", acc),
			fmt.Sprintf("%d", row.itersTo),
			fmt.Sprintf("%.4f", row.timeTo),
			pct(b.Share(core.CatGPUGPUParam)),
			pct(b.Share(core.CatCPUGPUData)),
			pct(b.Share(core.CatCPUGPUParam)),
			pct(b.Share(core.CatForwardBackward)),
			pct(b.Share(core.CatGPUUpdate)),
			pct(b.Share(core.CatCPUUpdate)),
			pct(b.CommRatio()),
			speedup,
		)
	}
	r.AddNote("paper (Table 3): comm ratio falls 87%% -> 14%%; Sync EASGD3 is 5.3x over Original EASGD at equal accuracy (0.988)")
	r.AddNote("executed network is the TinyCNN LeNet stand-in; breakdown is the root's exposed-time account (the round-robin master, rank 0 of the tree methods) and sums to the run's time in every row")
	return r, nil
}

// RunFig11 renders the same measurement as Figure 11's stacked-percentage
// chart: one row per (method, category) pair for plotting.
func RunFig11(o Options) (*Report, error) {
	o = o.withDefaults()
	rows, err := runTable3Methods(o)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig11", Title: "Breakdown of time for EASGD variants (chart data)", PaperRef: "Figure 11"}
	t := r.NewTable("stacked shares per method", "Method", "Category", "share")
	for _, row := range rows {
		for _, c := range core.Categories() {
			t.AddRow(row.name, c.String(), pct(row.res.Breakdown.Share(c)))
		}
	}
	t2 := r.NewTable("comm vs compute", "Method", "comm ratio", "computation ratio")
	for _, row := range rows {
		cr := row.res.Breakdown.CommRatio()
		t2.AddRow(row.name, pct(cr), pct(1-cr))
	}
	return r, nil
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
