package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeTestBaselines populates dir with miniature copies of the three
// checked-in baseline files.
func writeTestBaselines(t *testing.T, dir string) {
	t.Helper()
	files := map[string]string{
		"BENCH_comm.json": `{
  "description": "test",
  "benchmarks": {
    "BenchmarkAllReduceTree": { "ns_per_op": 50000000, "sim_ms": 5.0 },
    "BenchmarkAllReduceHier": { "ns_per_op": 300000,   "sim_ms": 3.4 }
  }
}`,
		"BENCH_overlap.json": `{
  "description": "test",
  "benchmarks": {
    "BenchmarkAllReduceBucketed4": { "ns_per_op": 33000000, "sim_ms": 1.25 }
  }
}`,
		"BENCH_gemm.json": `{
  "description": "test",
  "benchmarks": [
    { "name": "GEMM/20x500x576", "ns_op": 748799, "gflops_by_tier": { "avx512": 15.0 }, "allocs_op": 0 },
    { "name": "MatVec", "ns_op": 142653, "allocs_op": 0 },
    { "name": "Conv2DForward (LeNet conv2, batch 16)", "ns_op": 3219204 }
  ]
}`,
		"BENCH_sim.json": `{
  "description": "test",
  "benchmarks": {
    "BenchmarkSimThroughput":        { "ns_per_op": 250, "events_per_sec": 8000000 },
    "BenchmarkSimSteadyStateAllocs": { "ns_per_op": 45, "allocs_per_op": 0 },
    "BenchmarkAllReduceP1024":       { "ns_per_op": 6000000, "sim_ms": 5.2, "max_ns_per_op": 10000000 }
  }
}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// simVals are the BENCH_sim.json-gated metrics of a fake bench run.
type simVals struct {
	events, allocs, p1024Ns, p1024SimMS float64
}

// simAtBaseline passes every BENCH_sim.json gate.
var simAtBaseline = simVals{events: 8000000, allocs: 0, p1024Ns: 6000000, p1024SimMS: 5.2}

// benchText renders a fake `go test -bench` output with the given sim_ms
// and GFLOPS values and the sim-kernel metrics at baseline.
func benchText(treeSimMS, hierSimMS, bucketSimMS, gflops float64) string {
	return benchTextSim(treeSimMS, hierSimMS, bucketSimMS, gflops, simAtBaseline)
}

func benchTextSim(treeSimMS, hierSimMS, bucketSimMS, gflops float64, s simVals) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\ngoarch: amd64\npkg: scaledl/internal/comm\n")
	w := func(name string, metrics string) {
		sb.WriteString(name + "-1 \t 10\t " + metrics + "\n")
	}
	w("BenchmarkAllReduceTree", f(50000000)+" ns/op\t "+f(treeSimMS)+" sim_ms")
	w("BenchmarkAllReduceHier", f(300000)+" ns/op\t "+f(hierSimMS)+" sim_ms")
	w("BenchmarkAllReduceBucketed4", f(33000000)+" ns/op\t "+f(bucketSimMS)+" sim_ms")
	w("BenchmarkGEMM/20x500x576", f(748799)+" ns/op\t "+f(gflops)+" GFLOPS\t 0 B/op\t 0 allocs/op")
	w("BenchmarkMatVec", f(142653)+" ns/op\t 0 B/op\t 0 allocs/op")
	w("BenchmarkSimThroughput", f(250)+" ns/op\t "+f(s.events)+" events/sec\t 0 B/op\t 0 allocs/op")
	w("BenchmarkSimSteadyStateAllocs", f(45)+" ns/op\t 0 B/op\t "+f(s.allocs)+" allocs/op")
	w("BenchmarkAllReduceP1024", f(s.p1024Ns)+" ns/op\t "+f(s.p1024SimMS)+" sim_ms")
	return sb.String()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// runGate writes benchOut to a file and gates it against dir's baselines
// under the tier the test fixtures record.
func runGate(t *testing.T, dir, benchOut string, update bool) []gateRow {
	return runGateTier(t, dir, benchOut, "avx512", update)
}

func runGateTier(t *testing.T, dir, benchOut, tier string, update bool) []gateRow {
	t.Helper()
	path := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(path, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := parseBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := gate(dir, tier, results, 0.15, update)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func countStatus(rows []gateRow, status string) int {
	n := 0
	for _, r := range rows {
		if r.Status == status {
			n++
		}
	}
	return n
}

// At baseline values the gate passes every gated metric and skips the
// host-speed (ns-only) entries.
func TestGatePassesAtBaseline(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	rows := runGate(t, dir, benchText(5.0, 3.4, 1.25, 15.0), false)
	if n := countStatus(rows, statusFail); n != 0 {
		t.Errorf("%d FAIL rows at baseline: %+v", n, rows)
	}
	// 4 sim_ms/GFLOPS gates + events/sec + allocs/op + P1024 sim_ms + P1024
	// ns/op ceiling + the GEMM and MatVec rows' allocs_op.
	if n := countStatus(rows, statusOK); n != 10 {
		t.Errorf("%d ok rows, want 10 gated metrics", n)
	}
	if n := countStatus(rows, statusSkipped); n != 2 {
		t.Errorf("%d skipped rows, want 2 ns-only entries", n)
	}
}

// Drift inside the 15% tolerance passes; a >15% sim_ms regression fails —
// the injected-regression demonstration of the CI gate.
func TestGateFailsOnInjectedSimRegression(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	// +10% on one sim_ms: within tolerance.
	rows := runGate(t, dir, benchText(5.5, 3.4, 1.25, 15.0), false)
	if countStatus(rows, statusFail) != 0 {
		t.Errorf("10%% drift flagged as regression: %+v", rows)
	}
	// +20% on one sim_ms: must fail.
	rows = runGate(t, dir, benchText(6.0, 3.4, 1.25, 15.0), false)
	if countStatus(rows, statusFail) != 1 {
		t.Errorf("injected 20%% sim_ms regression not caught: %+v", rows)
	}
	if rows[0].Name != "AllReduceTree" || rows[0].Status != statusFail {
		t.Errorf("FAIL row not sorted first: %+v", rows[0])
	}
}

// A >15% GFLOPS drop fails; a GFLOPS gain is an improvement, not a failure.
func TestGateFailsOnInjectedGFLOPSRegression(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	rows := runGate(t, dir, benchText(5.0, 3.4, 1.25, 12.0), false) // -20%
	if countStatus(rows, statusFail) != 1 {
		t.Errorf("injected GFLOPS regression not caught: %+v", rows)
	}
	rows = runGate(t, dir, benchText(5.0, 3.4, 1.25, 30.0), false) // +100%
	if countStatus(rows, statusFail) != 0 || countStatus(rows, statusImproved) != 1 {
		t.Errorf("GFLOPS improvement misclassified: %+v", rows)
	}
}

// A gated baseline whose benchmark never ran is a gate-integrity failure
// (someone narrowed the -bench pattern).
func TestGateFlagsMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	out := benchText(5.0, 3.4, 1.25, 15.0)
	out = strings.ReplaceAll(out, "BenchmarkAllReduceHier", "BenchmarkSomethingElse")
	rows := runGate(t, dir, out, false)
	if countStatus(rows, statusMissing) != 1 {
		t.Errorf("missing benchmark not flagged: %+v", rows)
	}
}

// -update rewrites the gated metrics in place; a rerun against the fresh
// values then passes.
func TestGateUpdateRewritesBaselines(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	out := benchText(6.5, 3.4, 1.25, 18.0)
	if rows := runGate(t, dir, out, false); countStatus(rows, statusFail) != 1 {
		t.Fatalf("expected one failure before update: %+v", rows)
	}
	runGate(t, dir, out, true)
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_comm.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base simBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if got := base.Benchmarks["BenchmarkAllReduceTree"].SimMS; got != 6.5 {
		t.Errorf("sim_ms not rewritten: %v", got)
	}
	if rows := runGate(t, dir, out, false); countStatus(rows, statusFail) != 0 {
		t.Errorf("gate still failing after -update: %+v", rows)
	}
}

// events/sec is a higher-better gate: a throughput drop beyond tolerance
// fails, a gain is an improvement.
func TestGateEventsPerSecHigherBetter(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	s := simAtBaseline
	s.events = 6000000 // -25%
	rows := runGate(t, dir, benchTextSim(5.0, 3.4, 1.25, 15.0, s), false)
	if countStatus(rows, statusFail) != 1 {
		t.Errorf("events/sec regression not caught: %+v", rows)
	}
	s.events = 10000000 // +25%
	rows = runGate(t, dir, benchTextSim(5.0, 3.4, 1.25, 15.0, s), false)
	if countStatus(rows, statusFail) != 0 || countStatus(rows, statusImproved) != 1 {
		t.Errorf("events/sec improvement misclassified: %+v", rows)
	}
}

// allocs_per_op is gated exactly: one allocation on the steady-state hot
// path fails regardless of tolerance.
func TestGateFailsOnSingleAllocRegression(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	s := simAtBaseline
	s.allocs = 1
	rows := runGate(t, dir, benchTextSim(5.0, 3.4, 1.25, 15.0, s), false)
	if countStatus(rows, statusFail) != 1 {
		t.Errorf("single-alloc regression not caught: %+v", rows)
	}
}

// An ns-only BENCH_gemm.json row's allocs_op is gated: its ns/op stays a
// skipped host-speed reference while one allocation fails the gate and a run
// without the benchmark is MISSING.
func TestGateLayerRowsGateAllocsOnly(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	gemm := `{"description": "test", "benchmarks": [
    { "name": "MaxPool2x2/tinycnn", "ns_op": 9000, "allocs_op": 0 }
  ]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_gemm.json"), []byte(gemm), 0o644); err != nil {
		t.Fatal(err)
	}
	layerRows := func(nsOp, allocs string) (ok, fail, missing, skipped int) {
		out := benchText(5.0, 3.4, 1.25, 15.0)
		if allocs != "" {
			out += "BenchmarkMaxPool2x2/tinycnn-2 \t 100\t " + nsOp + " ns/op\t 1.5 GB/s\t 0 B/op\t " + allocs + " allocs/op\n"
		}
		for _, r := range runGate(t, dir, out, false) {
			if r.File != "BENCH_gemm.json" {
				continue
			}
			switch r.Status {
			case statusOK:
				ok++
			case statusFail:
				fail++
			case statusMissing:
				missing++
			case statusSkipped:
				skipped++
			}
		}
		return
	}
	if ok, fail, missing, skipped := layerRows("9000", "0"); ok != 1 || fail+missing != 0 || skipped != 1 {
		t.Errorf("at baseline: ok %d fail %d missing %d skipped %d", ok, fail, missing, skipped)
	}
	// Ten times slower is host speed, not a regression.
	if ok, fail, _, _ := layerRows("90000", "0"); ok != 1 || fail != 0 {
		t.Errorf("ns/op must not be gated: ok %d fail %d", ok, fail)
	}
	if _, fail, _, _ := layerRows("9000", "1"); fail != 1 {
		t.Errorf("one allocation per op not caught (fail %d)", fail)
	}
	if _, _, missing, _ := layerRows("", ""); missing != 1 {
		t.Errorf("absent benchmark not flagged (missing %d)", missing)
	}
}

// max_ns_per_op is an absolute ceiling: real CPU cost above it fails even
// when the relative metrics pass, and -update never rewrites the ceiling.
func TestGateCeilingIsAbsoluteAndSticky(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	s := simAtBaseline
	s.p1024Ns = 12000000 // over the 10 ms ceiling
	rows := runGate(t, dir, benchTextSim(5.0, 3.4, 1.25, 15.0, s), false)
	failed := false
	for _, r := range rows {
		if r.Status == statusFail && r.Metric == "ns/op" {
			failed = true
		}
	}
	if !failed {
		t.Errorf("ceiling breach not caught: %+v", rows)
	}
	runGate(t, dir, benchTextSim(5.0, 3.4, 1.25, 15.0, s), true)
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base simKernelBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	entry := base.Benchmarks["BenchmarkAllReduceP1024"]
	if entry.MaxNsPerOp != 10000000 {
		t.Errorf("-update rewrote the ceiling: %d", entry.MaxNsPerOp)
	}
	if entry.NsPerOp != 12000000 {
		t.Errorf("-update did not rewrite ns_per_op: %d", entry.NsPerOp)
	}
}

// GFLOPS baselines are tier-keyed: gating under a tier with no recorded
// value reports MISSING (with the recorded tiers named), never a bogus
// comparison against another tier's number; -update under that tier records
// the new key without touching the existing ones.
func TestGateTierKeyedGFLOPS(t *testing.T) {
	dir := t.TempDir()
	writeTestBaselines(t, dir)
	// 7.5 GFLOPS would be a 50% "regression" against the avx512 baseline;
	// under the neon tier it must surface as MISSING instead.
	out := benchText(5.0, 3.4, 1.25, 7.5)
	rows := runGateTier(t, dir, out, "neon", false)
	found := false
	for _, r := range rows {
		if r.File == "BENCH_gemm.json" && r.Status == statusMissing {
			found = true
			if !strings.Contains(r.Note, `"neon"`) || !strings.Contains(r.Note, "avx512") {
				t.Errorf("MISSING-tier note should name the missing and recorded tiers: %q", r.Note)
			}
		}
		if r.File == "BENCH_gemm.json" && r.Status == statusFail {
			t.Errorf("cross-tier comparison produced a bogus regression: %+v", r)
		}
	}
	if !found {
		t.Fatalf("missing tier baseline not flagged: %+v", rows)
	}

	runGateTier(t, dir, out, "neon", true)
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_gemm.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base gemmBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	got := base.Benchmarks[0].GFLOPSByTier
	if got["neon"] != 7.5 || got["avx512"] != 15.0 {
		t.Errorf("-update should add the neon key and keep avx512: %v", got)
	}
	if rows := runGateTier(t, dir, out, "neon", false); countStatus(rows, statusFail)+countStatus(rows, statusMissing) != 0 {
		t.Errorf("gate still unhappy after recording the tier: %+v", rows)
	}
}

// The real checked-in baselines parse and every gated entry has a matching
// benchmark name shape (guards against renames drifting past the gate).
// BENCH_serve.json gates req/s higher-better with the tolerance and
// allocs/op exactly; -update records mean_batch without gating it.
func TestGateServe(t *testing.T) {
	dir := t.TempDir()
	baseline := `{
  "description": "test",
  "benchmarks": {
    "BenchmarkServeSolo":      { "ns_per_op": 32000, "req_per_sec": 31000, "allocs_per_op": 0 },
    "BenchmarkServeCoalesced": { "ns_per_op": 25000, "req_per_sec": 39000, "allocs_per_op": 0, "mean_batch": 8.0 }
  }
}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_serve.json"), []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := func(soloRPS, coalRPS, coalAllocs float64) string {
		return "BenchmarkServeSolo-1 \t 10\t 32000 ns/op\t " + f(soloRPS) + " req/s\t 0 B/op\t 0 allocs/op\n" +
			"BenchmarkServeCoalesced-1 \t 10\t 25000 ns/op\t 7.9 mean-batch\t " + f(coalRPS) +
			" req/s\t 0 B/op\t " + f(coalAllocs) + " allocs/op\n"
	}

	// At baseline everything passes: 2 req/s gates + 2 allocs gates.
	rows := runGate(t, dir, bench(31000, 39000, 0), false)
	serveOK := 0
	for _, r := range rows {
		if r.File == "BENCH_serve.json" {
			if r.Status != statusOK {
				t.Errorf("at baseline: %+v", r)
			}
			serveOK++
		}
	}
	if serveOK != 4 {
		t.Errorf("gated %d serve rows, want 4", serveOK)
	}

	// Throughput is higher-better: a drop beyond tolerance fails, a gain
	// reports improved.
	rows = runGate(t, dir, bench(31000, 20000, 0), false)
	if !hasRow(rows, "ServeCoalesced", "req/s", statusFail) {
		t.Errorf("throughput collapse not failed: %+v", rows)
	}
	rows = runGate(t, dir, bench(31000, 60000, 0), false)
	if !hasRow(rows, "ServeCoalesced", "req/s", statusImproved) {
		t.Errorf("throughput gain not improved: %+v", rows)
	}

	// One allocation in the hot path fails regardless of tolerance.
	rows = runGate(t, dir, bench(31000, 39000, 1), false)
	if !hasRow(rows, "ServeCoalesced", "allocs/op", statusFail) {
		t.Errorf("alloc regression not failed: %+v", rows)
	}

	// -update rewrites req/s and mean_batch from the fresh run.
	runGate(t, dir, bench(35000, 41000, 0), true)
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var updated serveBaseline
	if err := json.Unmarshal(raw, &updated); err != nil {
		t.Fatal(err)
	}
	coal := updated.Benchmarks["BenchmarkServeCoalesced"]
	if coal.ReqPerSec != 41000 || coal.MeanBatch != 7.9 {
		t.Errorf("update wrote req_per_sec=%v mean_batch=%v", coal.ReqPerSec, coal.MeanBatch)
	}
	if updated.Benchmarks["BenchmarkServeSolo"].ReqPerSec != 35000 {
		t.Errorf("update wrote solo req_per_sec=%v", updated.Benchmarks["BenchmarkServeSolo"].ReqPerSec)
	}
}

func hasRow(rows []gateRow, name, metric, status string) bool {
	for _, r := range rows {
		if r.Name == name && r.Metric == metric && r.Status == status {
			return true
		}
	}
	return false
}

func TestRealBaselinesParse(t *testing.T) {
	root := filepath.Join("..", "..")
	results := map[string]benchResult{}
	rows, err := gate(root, "avx512", results, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	// With no fresh results, every gated metric must surface as MISSING —
	// proving the baselines parse and are all actually gated.
	missing := countStatus(rows, statusMissing)
	if missing == 0 {
		t.Error("no gated baselines found in checked-in BENCH_*.json")
	}
	if countStatus(rows, statusFail) != 0 {
		t.Errorf("unexpected FAIL with empty fresh results: %+v", rows)
	}
}
