package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The spread the acceptance procedure computes uses Python's
// statistics.quantiles(v, n=4); these are its answers.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 12, 11, 15, 9, 30, 11.5}, [3]float64{10, 11.5, 15}},
		{[]float64{3, 7}, [3]float64{2, 5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (5.5 between quartiles over median 5.5)", got)
	}
}

// A tail percentile is reported only when at least ten samples lie
// beyond it: the highest such rung of the ladder.
func TestTailRungNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := tailRung(c.n); got != c.want {
			t.Errorf("tailRung(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestRegressedHonoursDirectionBoundAndFloor(t *testing.T) {
	cases := []struct {
		name        string
		base, cand  float64
		better      string
		bound, flor float64
		want        bool
	}{
		{"lower: 9% worse within 10%", 100, 109, "lower", 0.10, 0, false},
		{"lower: 11% worse beyond 10%", 100, 111, "lower", 0.10, 0, true},
		{"lower: better is never a regression", 100, 50, "lower", 0.10, 0, false},
		{"higher: 11% drop beyond 10%", 100, 89, "higher", 0.10, 0, true},
		{"higher: a rise is fine", 100, 150, "higher", 0.10, 0, false},
		{"floor: 30% of a tiny set-up under the floor", 0.10, 0.13, "lower", 0.20, 0.05, false},
		{"floor: beyond both share and floor", 0.10, 0.16, "lower", 0.20, 0.05, true},
		{"floor: over the floor but within the share", 1.0, 1.1, "lower", 0.20, 0.05, false},
	}
	for _, c := range cases {
		if got := regressed(c.base, c.cand, c.better, c.bound, c.flor); got != c.want {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.want)
		}
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},    // overlaps a: union 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0},   // runs past the parent: clipped at 100
		{Name: "a1", Start: 15, End: 25, Parent: 1},   // grandchild: only a's self time
		{Name: "open", Start: 50, End: -1, Parent: 0}, // never closed: ignored
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 0}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	r := &recorder{spans: spans}
	if tot := r.totals(); tot["root"].Self != 40 || tot["a"].Dur != 30 || tot["open"].N != 0 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := &recorder{}
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 || len(r.spans) != 0 {
		t.Errorf("recorder off recorded %d spans (id %d)", len(r.spans), id)
	}
}

// The arrival schedule is a pure function of the seed: increasing due
// times inside the window at about the asked rate.
func TestScheduleIsSeededPoisson(t *testing.T) {
	a := schedule(7, 1000, 2*time.Second, 64)
	b := schedule(7, 1000, 2*time.Second, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave another schedule")
	}
	if c := schedule(8, 1000, 2*time.Second, 64); reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", n)
	}
	for i, x := range a {
		if x.due < 0 || x.due >= 2*time.Second || x.body < 0 || x.body >= 64 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("due times decrease at %d", i)
		}
	}
}

// slowTarget answers after a fixed delay; it lets the generator's own
// accounting be checked without a server.
type slowTarget struct{ delay time.Duration }

func (s slowTarget) send(int) func() bool {
	time.Sleep(s.delay)
	return func() bool { return true }
}

// Open loop: every arrival is sent, and latency runs from the due time,
// so it covers both how late the generator sent and the service time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	arr := []arrival{{0, 0}, {0, 1}, {5 * time.Millisecond, 2}, {5 * time.Millisecond, 3}}
	_, recs := runOpen(slowTarget{2 * time.Millisecond}, arr)
	if len(recs) != len(arr) {
		t.Fatalf("%d of %d arrivals sent", len(recs), len(arr))
	}
	for i, r := range recs {
		if !r.ok || r.due != arr[i].due || r.body != arr[i].body {
			t.Errorf("record %d = %+v", i, r)
		}
		if r.late() < 0 || r.sent < r.due {
			t.Errorf("record %d sent before it was due: %+v", i, r)
		}
		if r.latency() != r.late()+(r.done-r.sent) || r.latency() < 2*time.Millisecond {
			t.Errorf("record %d latency %v does not run from the due time: %+v", i, r.latency(), r)
		}
	}
}

func TestClosedLoopStopsAtLimit(t *testing.T) {
	_, recs := runClosed(slowTarget{time.Millisecond}, 4, time.Minute, 1, 8, 40)
	if len(recs) != 40 {
		t.Fatalf("%d requests sent, want the limit of 40", len(recs))
	}
	for i, r := range recs {
		if !r.ok || r.due != r.sent || r.latency() < time.Millisecond {
			t.Errorf("record %d = %+v", i, r)
		}
	}
}

// The serving tail describes the quarter-second window that three quarters
// of the windows are better than: a stall confined to fewer windows than a
// quarter is a host's, and is dropped; one that hits more of them shows.
func TestWorstWindowsDropsRareStallsOnly(t *testing.T) {
	pass := func(stalled ...int) []reqRecord {
		var recs []reqRecord
		for w := 0; w < 20; w++ {
			lat := time.Millisecond
			for _, s := range stalled {
				if w == s {
					lat = 80 * time.Millisecond
				}
			}
			for i := 0; i < 250; i++ {
				due := time.Duration(w)*tailWindow + time.Duration(i)*time.Millisecond
				recs = append(recs, reqRecord{due: due, sent: due, done: due + lat, ok: true})
			}
		}
		return recs
	}
	const limit = 10 * time.Millisecond
	for _, stalled := range [][]int{{7}, {3, 7, 11, 15}} {
		tail, ok, per := worstWindows(pass(stalled...), 20*tailWindow, limit)
		if !near(tail, 1) || !near(ok, 1) || per != 250 {
			t.Errorf("%d stalled windows of twenty: tail %v ms, ok %v, %d per window; want 1 ms, 1, 250", len(stalled), tail, ok, per)
		}
	}
	often := pass(1, 4, 7, 10, 13, 16)
	if tail, ok, _ := worstWindows(often, 20*tailWindow, limit); !near(tail, 80) || !near(ok, 0) {
		t.Errorf("six stalled windows of twenty: tail %v ms, ok %v; want 80 ms, 0", tail, ok)
	}
	if _, ok, _ := worstWindows(often, 20*tailWindow, 0); !near(ok, 1) {
		t.Errorf("without a limit a late, correct response is ok; got %v", ok)
	}
}

// BENCHMARK.json at the repository root repeats the registry; the two
// must not drift apart.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloads) {
		t.Errorf("workloads differ:\n%v\n%v", file.Workloads, workloads)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs")
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
	for _, w := range workloads {
		_, train := trainSpecs[w.Name]
		_, srv := serveSpecs[w.Name]
		if !train && !srv && w.Name != "sim_scale_sweep" {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
