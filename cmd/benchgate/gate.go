package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed `go test -bench` line: the benchmark name
// (Benchmark prefix and -N GOMAXPROCS suffix stripped) and its metrics by
// unit ("ns/op", "sim_ms", "GFLOPS", "allocs/op", …).
type benchResult struct {
	Name    string
	Metrics map[string]float64
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBenchFile extracts benchmark results from `go test -bench` output.
func parseBenchFile(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

func parseBench(r io.Reader) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := benchResult{Name: m[1], Metrics: map[string]float64{}}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad metric value %q", res.Name, fields[i])
			}
			res.Metrics[fields[i+1]] = v
		}
		out[res.Name] = res
	}
	return out, sc.Err()
}

// Gate row statuses.
const (
	statusOK       = "ok"
	statusFail     = "FAIL"
	statusImproved = "improved"
	statusMissing  = "MISSING"
	statusSkipped  = "-"
)

// gateRow is one gated comparison for the report table.
type gateRow struct {
	File, Name, Metric  string
	Base, Fresh, Change float64 // Change: fractional delta, signed so that > 0 means regression
	Status              string
	Note                string
}

// simBaseline mirrors BENCH_comm.json / BENCH_overlap.json.
type simBaseline struct {
	Description string               `json:"description"`
	Benchmarks  map[string]*simEntry `json:"benchmarks"`
}

type simEntry struct {
	NsPerOp int64   `json:"ns_per_op"`
	SimMS   float64 `json:"sim_ms"`
}

// simKernelBaseline mirrors BENCH_sim.json: the event-kernel and
// thousand-node collective baselines. Beyond sim_ms it gates three metric
// kinds the other sim files don't:
//
//   - events_per_sec — kernel throughput, higher-better, gated with the
//     shared tolerance (host-dependent but order-of-magnitude stable);
//   - allocs_per_op — gated exactly: the steady-state hot path is
//     allocation-free by construction, so any increase fails outright;
//   - events_per_op — the deterministic wake-up count of a simulated
//     workload (sim.Env.Events), gated exactly: unlike ns/op it is a pure
//     function of the simulation's inputs, so it pins scheduler *work*
//     without runner noise — e.g. the fault-free-overhead contract of the
//     chaos layer, where guarded-path machinery leaking into the fast
//     path would add ack/timer events per message;
//   - max_ns_per_op — an absolute real-time ceiling on the fresh ns/op
//     (deliberately generous for runner noise). It encodes a contract —
//     "a P=1024 sweep point stays under N ms of real CPU" — so -update
//     never rewrites it.
type simKernelBaseline struct {
	Description string                     `json:"description"`
	Benchmarks  map[string]*simKernelEntry `json:"benchmarks"`
}

type simKernelEntry struct {
	NsPerOp      int64    `json:"ns_per_op"`
	EventsPerSec float64  `json:"events_per_sec,omitempty"`
	SimMS        float64  `json:"sim_ms,omitempty"`
	AllocsPerOp  *float64 `json:"allocs_per_op,omitempty"`
	EventsPerOp  *float64 `json:"events_per_op,omitempty"`
	MaxNsPerOp   int64    `json:"max_ns_per_op,omitempty"`
}

// serveBaseline mirrors BENCH_serve.json: the inference-serving baselines.
// Two metrics are gated per entry:
//
//   - req_per_sec — serving throughput through the batcher, higher-better,
//     gated with the shared tolerance (host-dependent but order-of-magnitude
//     stable: a lost coalescing path halves it);
//   - allocs_per_op — gated exactly: the batching hot path (admission →
//     coalesce → PredictInto → fan-out) is allocation-free in steady state
//     by contract, so any increase fails outright.
//
// mean_batch is recorded by -update for reference (it shows coalescing is
// actually happening) but not gated: it depends on sender scheduling.
type serveBaseline struct {
	Description string                 `json:"description"`
	Benchmarks  map[string]*serveEntry `json:"benchmarks"`
}

type serveEntry struct {
	NsPerOp     int64    `json:"ns_per_op"`
	ReqPerSec   float64  `json:"req_per_sec"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	MeanBatch   float64  `json:"mean_batch,omitempty"`
}

// gemmBaseline mirrors BENCH_gemm.json.
type gemmBaseline struct {
	Description string         `json:"description"`
	Environment map[string]any `json:"environment,omitempty"`
	Invariants  map[string]any `json:"invariants,omitempty"`
	Benchmarks  []*gemmEntry   `json:"benchmarks"`
	Notes       string         `json:"notes,omitempty"`
}

// gemmEntry's GFLOPS baselines are keyed by kernel tier ("avx512", "avx2",
// "sse2", "neon", "generic"): the same benchmark legitimately runs 2× faster
// or slower depending on which micro-kernel the host dispatches to, so a
// single number would either mask an AVX-512 regression or fail every SSE2
// host. The gate compares only against the running tier's key; a missing key
// is reported as MISSING with instructions, never as a bogus regression.
type gemmEntry struct {
	Name         string             `json:"name"`
	NsOp         int64              `json:"ns_op"`
	GFLOPSByTier map[string]float64 `json:"gflops_by_tier,omitempty"`
	// AllocsOp, where an entry records it, is gated exactly — on ns-only
	// entries too, whose ns/op stays an ungated host-speed reference. It is
	// how the layer rows (ReLU, pooling) pin their zero-allocation contract.
	// Entries whose count follows the host's pool width (GEMM, MatMul: par.For
	// allocates per dispatch) leave it out; -update never adds it.
	AllocsOp  *int64  `json:"allocs_op,omitempty"`
	OldNsOp   int64   `json:"old_ns_op,omitempty"`
	OldGFLOPS float64 `json:"old_gflops,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

// tierKeys lists an entry's recorded tiers for the MISSING note.
func tierKeys(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// gemmBenchName maps a baseline entry name to its benchmark name: the part
// before any parenthesized qualifier ("Conv2DForward (LeNet conv2, batch
// 16)" ran as BenchmarkConv2DForward).
func gemmBenchName(name string) string {
	if i := strings.Index(name, " ("); i >= 0 {
		return name[:i]
	}
	return name
}

// gate compares fresh results against every baseline file present in dir
// and returns the report rows, most severe first within each file. tier
// selects which gflops_by_tier key of BENCH_gemm.json to gate (and, with
// update, to rewrite). With update set, the gated metrics (and ns/op) in the
// baselines are rewritten from the fresh results instead.
func gate(dir, tier string, fresh map[string]benchResult, tol float64, update bool) ([]gateRow, error) {
	var rows []gateRow

	for _, simFile := range []string{"BENCH_comm.json", "BENCH_overlap.json"} {
		path := filepath.Join(dir, simFile)
		raw, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return nil, err
		}
		var base simBaseline
		if err := json.Unmarshal(raw, &base); err != nil {
			return nil, fmt.Errorf("%s: %w", simFile, err)
		}
		names := make([]string, 0, len(base.Benchmarks))
		for name := range base.Benchmarks {
			names = append(names, name)
		}
		sort.Strings(names)
		changed := false
		for _, name := range names {
			entry := base.Benchmarks[name]
			short := strings.TrimPrefix(name, "Benchmark")
			got, ok := fresh[short]
			if !ok {
				rows = append(rows, gateRow{File: simFile, Name: short, Metric: "sim_ms",
					Base: entry.SimMS, Status: statusMissing, Note: "benchmark did not run"})
				continue
			}
			simMS, ok := got.Metrics["sim_ms"]
			if !ok {
				rows = append(rows, gateRow{File: simFile, Name: short, Metric: "sim_ms",
					Base: entry.SimMS, Status: statusMissing, Note: "no sim_ms metric reported"})
				continue
			}
			if update {
				entry.SimMS = simMS
				if ns, ok := got.Metrics["ns/op"]; ok {
					entry.NsPerOp = int64(ns)
				}
				changed = true
				continue
			}
			rows = append(rows, compare(simFile, short, "sim_ms", entry.SimMS, simMS, tol, false))
		}
		if update && changed {
			out, err := json.MarshalIndent(base, "", "  ")
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
				return nil, err
			}
		}
	}

	simRows, err := gateSimKernel(dir, fresh, tol, update)
	if err != nil {
		return nil, err
	}
	rows = append(rows, simRows...)

	serveRows, err := gateServe(dir, fresh, tol, update)
	if err != nil {
		return nil, err
	}
	rows = append(rows, serveRows...)

	path := filepath.Join(dir, "BENCH_gemm.json")
	raw, err := os.ReadFile(path)
	if err == nil {
		var base gemmBaseline
		if err := json.Unmarshal(raw, &base); err != nil {
			return nil, fmt.Errorf("BENCH_gemm.json: %w", err)
		}
		changed := false
		for _, entry := range base.Benchmarks {
			// A nil map marks an ns-only entry; an empty one ("gflops_by_tier":
			// {}) is a gated entry awaiting its first -update.
			if entry.GFLOPSByTier == nil {
				// ns-only entries (MatMul, Im2col, Conv2D…) are host-speed
				// measurements; reported for reference, never gated.
				rows = append(rows, gateRow{File: "BENCH_gemm.json", Name: entry.Name,
					Metric: "ns/op", Base: float64(entry.NsOp), Status: statusSkipped,
					Note: "host-speed metric, not gated"})
				if entry.AllocsOp == nil {
					continue
				}
				got := fresh[gemmBenchName(entry.Name)]
				if al, ok := got.Metrics["allocs/op"]; ok && update {
					v := int64(al)
					entry.AllocsOp = &v
					entry.NsOp = int64(got.Metrics["ns/op"])
					changed = true
				} else {
					rows = append(rows, gemmAllocs(entry, got))
				}
				continue
			}
			got, ok := fresh[gemmBenchName(entry.Name)]
			if !ok {
				rows = append(rows, gateRow{File: "BENCH_gemm.json", Name: entry.Name,
					Metric: "GFLOPS", Base: entry.GFLOPSByTier[tier], Status: statusMissing, Note: "benchmark did not run"})
				continue
			}
			gflops, ok := got.Metrics["GFLOPS"]
			if !ok {
				rows = append(rows, gateRow{File: "BENCH_gemm.json", Name: entry.Name,
					Metric: "GFLOPS", Base: entry.GFLOPSByTier[tier], Status: statusMissing, Note: "no GFLOPS metric reported"})
				continue
			}
			if update {
				entry.GFLOPSByTier[tier] = gflops
				if ns, ok := got.Metrics["ns/op"]; ok {
					entry.NsOp = int64(ns)
				}
				if al, ok := got.Metrics["allocs/op"]; ok && entry.AllocsOp != nil {
					v := int64(al)
					entry.AllocsOp = &v
				}
				if entry.OldGFLOPS > 0 {
					// Speedup reports the widest recorded tier against the
					// pre-engine scalar code.
					best := 0.0
					for _, v := range entry.GFLOPSByTier {
						if v > best {
							best = v
						}
					}
					entry.Speedup = best / entry.OldGFLOPS
				}
				changed = true
				continue
			}
			baseGF, ok := entry.GFLOPSByTier[tier]
			if !ok {
				rows = append(rows, gateRow{File: "BENCH_gemm.json", Name: entry.Name,
					Metric: "GFLOPS", Status: statusMissing,
					Note: fmt.Sprintf("no baseline for kernel tier %q (recorded: %s) — record one with -update on this host",
						tier, tierKeys(entry.GFLOPSByTier))})
				continue
			}
			rows = append(rows, compare("BENCH_gemm.json", entry.Name, "GFLOPS", baseGF, gflops, tol, true))
			if entry.AllocsOp != nil {
				rows = append(rows, gemmAllocs(entry, got))
			}
		}
		if update && changed {
			out, err := json.MarshalIndent(base, "", "  ")
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
				return nil, err
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	sort.SliceStable(rows, func(i, j int) bool { return severity(rows[i].Status) < severity(rows[j].Status) })
	return rows, nil
}

// gateSimKernel gates BENCH_sim.json. Each entry may pin several metrics at
// once; every pinned metric produces its own row.
func gateSimKernel(dir string, fresh map[string]benchResult, tol float64, update bool) ([]gateRow, error) {
	const simFile = "BENCH_sim.json"
	path := filepath.Join(dir, simFile)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var base simKernelBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", simFile, err)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []gateRow
	changed := false
	for _, name := range names {
		entry := base.Benchmarks[name]
		short := strings.TrimPrefix(name, "Benchmark")
		got, ok := fresh[short]
		if !ok {
			rows = append(rows, gateRow{File: simFile, Name: short, Metric: "ns/op",
				Base: float64(entry.NsPerOp), Status: statusMissing, Note: "benchmark did not run"})
			continue
		}
		if update {
			if ns, ok := got.Metrics["ns/op"]; ok {
				entry.NsPerOp = int64(ns)
			}
			if ev, ok := got.Metrics["events/sec"]; ok && entry.EventsPerSec > 0 {
				entry.EventsPerSec = ev
			}
			if ms, ok := got.Metrics["sim_ms"]; ok && entry.SimMS > 0 {
				entry.SimMS = ms
			}
			if al, ok := got.Metrics["allocs/op"]; ok && entry.AllocsPerOp != nil {
				entry.AllocsPerOp = &al
			}
			if ev, ok := got.Metrics["events/op"]; ok && entry.EventsPerOp != nil {
				entry.EventsPerOp = &ev
			}
			// MaxNsPerOp is a contract, never a measurement: left untouched.
			changed = true
			continue
		}
		need := func(metric string, gateBase float64, do func(v float64) gateRow) {
			v, ok := got.Metrics[metric]
			if !ok {
				rows = append(rows, gateRow{File: simFile, Name: short, Metric: metric,
					Base: gateBase, Status: statusMissing, Note: "no " + metric + " metric reported"})
				return
			}
			rows = append(rows, do(v))
		}
		if entry.SimMS > 0 {
			need("sim_ms", entry.SimMS, func(v float64) gateRow {
				return compare(simFile, short, "sim_ms", entry.SimMS, v, tol, false)
			})
		}
		if entry.EventsPerSec > 0 {
			need("events/sec", entry.EventsPerSec, func(v float64) gateRow {
				return compare(simFile, short, "events/sec", entry.EventsPerSec, v, tol, true)
			})
		}
		if entry.AllocsPerOp != nil {
			need("allocs/op", *entry.AllocsPerOp, func(v float64) gateRow {
				return exactAllocs(simFile, short, *entry.AllocsPerOp, v, "hot path")
			})
		}
		if entry.EventsPerOp != nil {
			need("events/op", *entry.EventsPerOp, func(v float64) gateRow {
				row := gateRow{File: simFile, Name: short, Metric: "events/op",
					Base: *entry.EventsPerOp, Fresh: v}
				switch {
				case v > *entry.EventsPerOp:
					row.Status = statusFail
					row.Note = fmt.Sprintf("scheduler work grew: %.0f events/op (baseline %.0f, gated exactly — deterministic)",
						v, *entry.EventsPerOp)
				case v < *entry.EventsPerOp:
					row.Status = statusImproved
					row.Note = "fewer events than baseline — consider regenerating with -update"
				default:
					row.Status = statusOK
				}
				return row
			})
		}
		if entry.MaxNsPerOp > 0 {
			need("ns/op", float64(entry.MaxNsPerOp), func(v float64) gateRow {
				row := gateRow{File: simFile, Name: short, Metric: "ns/op",
					Base: float64(entry.MaxNsPerOp), Fresh: v, Change: v/float64(entry.MaxNsPerOp) - 1}
				if v > float64(entry.MaxNsPerOp) {
					row.Status = statusFail
					row.Note = fmt.Sprintf("breached the absolute real-time ceiling of %d ns/op", entry.MaxNsPerOp)
				} else {
					row.Status = statusOK
					row.Note = "absolute ceiling, not a relative gate"
				}
				return row
			})
		}
	}
	if update && changed {
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// gateServe gates BENCH_serve.json: req/s with the shared tolerance
// (higher-better), allocs/op exactly.
func gateServe(dir string, fresh map[string]benchResult, tol float64, update bool) ([]gateRow, error) {
	const serveFile = "BENCH_serve.json"
	path := filepath.Join(dir, serveFile)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var base serveBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", serveFile, err)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []gateRow
	changed := false
	for _, name := range names {
		entry := base.Benchmarks[name]
		short := strings.TrimPrefix(name, "Benchmark")
		got, ok := fresh[short]
		if !ok {
			rows = append(rows, gateRow{File: serveFile, Name: short, Metric: "req/s",
				Base: entry.ReqPerSec, Status: statusMissing, Note: "benchmark did not run"})
			continue
		}
		if update {
			if ns, ok := got.Metrics["ns/op"]; ok {
				entry.NsPerOp = int64(ns)
			}
			if rs, ok := got.Metrics["req/s"]; ok {
				entry.ReqPerSec = rs
			}
			if al, ok := got.Metrics["allocs/op"]; ok && entry.AllocsPerOp != nil {
				entry.AllocsPerOp = &al
			}
			if mb, ok := got.Metrics["mean-batch"]; ok {
				entry.MeanBatch = mb
			}
			changed = true
			continue
		}
		if rs, ok := got.Metrics["req/s"]; ok {
			rows = append(rows, compare(serveFile, short, "req/s", entry.ReqPerSec, rs, tol, true))
		} else {
			rows = append(rows, gateRow{File: serveFile, Name: short, Metric: "req/s",
				Base: entry.ReqPerSec, Status: statusMissing, Note: "no req/s metric reported"})
		}
		if entry.AllocsPerOp != nil {
			al, ok := got.Metrics["allocs/op"]
			if !ok {
				rows = append(rows, gateRow{File: serveFile, Name: short, Metric: "allocs/op",
					Base: *entry.AllocsPerOp, Status: statusMissing, Note: "no allocs/op metric reported"})
				continue
			}
			rows = append(rows, exactAllocs(serveFile, short, *entry.AllocsPerOp, al, "serving hot path"))
		}
	}
	if update && changed {
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// gemmAllocs gates a BENCH_gemm.json entry's recorded allocs_op against the
// fresh run; a run that did not report the metric is MISSING.
func gemmAllocs(entry *gemmEntry, got benchResult) gateRow {
	al, ok := got.Metrics["allocs/op"]
	if !ok {
		return gateRow{File: "BENCH_gemm.json", Name: entry.Name, Metric: "allocs/op",
			Base: float64(*entry.AllocsOp), Status: statusMissing, Note: "benchmark did not run with -benchmem"}
	}
	return exactAllocs("BENCH_gemm.json", entry.Name, float64(*entry.AllocsOp), al, "kernel hot path")
}

// exactAllocs gates allocs/op exactly, whatever the tolerance: one more
// allocation than the baseline on a steady-state hot path fails.
func exactAllocs(file, name string, base, fresh float64, what string) gateRow {
	row := gateRow{File: file, Name: name, Metric: "allocs/op", Base: base, Fresh: fresh}
	switch {
	case fresh > base:
		row.Status = statusFail
		row.Note = fmt.Sprintf("%s allocates: %.0f allocs/op (baseline %.0f, gated exactly)", what, fresh, base)
	case fresh < base:
		row.Status = statusImproved
		row.Note = "fewer allocations than baseline — consider regenerating with -update"
	default:
		row.Status = statusOK
	}
	return row
}

func severity(status string) int {
	switch status {
	case statusFail:
		return 0
	case statusMissing:
		return 1
	case statusImproved:
		return 2
	case statusOK:
		return 3
	default:
		return 4
	}
}

// compare gates one metric. higherBetter selects the direction (GFLOPS)
// versus cost metrics (sim_ms).
func compare(file, name, metric string, base, fresh, tol float64, higherBetter bool) gateRow {
	row := gateRow{File: file, Name: name, Metric: metric, Base: base, Fresh: fresh}
	if base <= 0 {
		row.Status = statusSkipped
		row.Note = "no baseline value"
		return row
	}
	change := fresh/base - 1
	if higherBetter {
		change = -change // normalize: positive change = regression
	}
	row.Change = change
	switch {
	case change > tol:
		row.Status = statusFail
		row.Note = fmt.Sprintf("regressed %.1f%% (tolerance %.0f%%)", change*100, tol*100)
	case change < -tol:
		row.Status = statusImproved
		row.Note = "faster than baseline — consider regenerating with -update"
	default:
		row.Status = statusOK
	}
	return row
}

func printTable(w io.Writer, rows []gateRow) {
	fmt.Fprintf(w, "%-18s %-42s %-7s %12s %12s %8s  %-8s %s\n",
		"baseline", "benchmark", "metric", "base", "fresh", "delta", "status", "note")
	for _, r := range rows {
		fresh, delta := "-", "-"
		if r.Status != statusMissing && r.Status != statusSkipped {
			fresh = fmt.Sprintf("%.4g", r.Fresh)
			delta = fmt.Sprintf("%+.1f%%", r.Change*100)
		}
		fmt.Fprintf(w, "%-18s %-42s %-7s %12.4g %12s %8s  %-8s %s\n",
			r.File, r.Name, r.Metric, r.Base, fresh, delta, r.Status, r.Note)
	}
}

// writeMarkdown renders the rows as a GitHub job-summary table.
func writeMarkdown(w io.Writer, rows []gateRow, tol float64, tier string) {
	fmt.Fprintf(w, "## Benchmark gate (tolerance %.0f%%, kernel tier `%s`)\n\n", tol*100, tier)
	fmt.Fprintln(w, "| status | baseline | benchmark | metric | base | fresh | delta |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fresh, delta := "—", "—"
		if r.Status != statusMissing && r.Status != statusSkipped {
			fresh = fmt.Sprintf("%.4g", r.Fresh)
			delta = fmt.Sprintf("%+.1f%%", r.Change*100)
		}
		icon := map[string]string{
			statusOK: "✅", statusFail: "❌", statusImproved: "🚀", statusMissing: "⚠️", statusSkipped: "➖",
		}[r.Status]
		fmt.Fprintf(w, "| %s %s | %s | %s | %s | %.4g | %s | %s |\n",
			icon, r.Status, r.File, r.Name, r.Metric, r.Base, fresh, delta)
	}
	fmt.Fprintln(w)
}
