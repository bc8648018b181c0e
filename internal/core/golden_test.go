package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"scaledl/internal/comm"
	"scaledl/internal/quant"
)

// The golden clock: every number below is a pure function of the cost models
// (hardware, links, schedules, fault seeds) — never of the gradient values —
// so the file is identical on every GEMM kernel tier and pool width, and a
// refactor of the training loops that moves one simulated event, one charge
// or one wire byte fails here with the row and field named. Losses and
// accuracies are deliberately not pinned (FMA tiers differ in low-order
// bits); the math-identity tests own those.
//
// Regenerate with
//
//	go test ./internal/core -run TestGoldenSimulatedClock -update
//
// only when a change is *meant* to move the simulated clock, and say so in
// the PR.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_clock.json from the current code")

const goldenClockPath = "testdata/golden_clock.json"

// clockRecord is the time-and-traffic projection of one Result. Float64s are
// stored as their IEEE-754 bit patterns (hex) so equality is exact.
type clockRecord struct {
	SimTime       string   `json:"sim_time"`
	Times         []string `json:"times"` // per Category, Table 3 column order
	Hidden        string   `json:"hidden"`
	Bytes         []int64  `json:"bytes"` // per Category
	Samples       int64    `json:"samples"`
	MasterUpdates int64    `json:"master_updates"`
	Curve         []string `json:"curve"` // each point's SimTime
	// Dropped is the partial-aggregation drop log ("step:[ranks]"): arrival
	// order is a function of the simulated clock alone, so it belongs here.
	Dropped []string `json:"dropped,omitempty"`
}

func f64bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func clockOf(r Result) clockRecord {
	rec := clockRecord{
		SimTime:       f64bits(r.SimTime),
		Hidden:        f64bits(r.Breakdown.HiddenComm),
		Samples:       r.Samples,
		MasterUpdates: r.MasterUpdates,
		Curve:         []string{},
	}
	for _, c := range Categories() {
		rec.Times = append(rec.Times, f64bits(r.Breakdown.Times[c]))
		rec.Bytes = append(rec.Bytes, r.Breakdown.Bytes[c])
	}
	for _, pt := range r.Curve {
		rec.Curve = append(rec.Curve, f64bits(pt.SimTime))
	}
	for _, d := range r.Dropped {
		rec.Dropped = append(rec.Dropped, fmt.Sprintf("%d:%v", d.Step, d.Ranks))
	}
	return rec
}

// goldenCase is one row of the battery: a method on a mutated TinyCNN config.
type goldenCase struct {
	name   string
	method string // registry name, or "knl-cluster-easgd"
	mutate func(*Config)
}

// goldenBattery is the TinyCNN battery the golden file pins: every method
// plain, then each knob on the methods that honor it.
func goldenBattery() []goldenCase {
	hier := func(c *Config) { c.Nodes, c.GPUsPerNode = 2, 2 }
	overlap := func(c *Config) { c.Overlap, c.BucketBytes = true, 2<<10 }
	straggle := func(c *Config) {
		c.Faults = FaultPlan{
			Heterogeneity:   []float64{1, 1.15},
			StragglerFactor: 3, StragglerRanks: []int{2}, StragglerFrom: 2, StragglerUntil: 5,
			FailRank: 1, FailAtStep: 4, CheckpointEvery: 2,
		}
	}
	lossy := func(c *Config) { c.Faults = FaultPlan{LossRate: 0.05, FaultSeed: 11} }
	failCont := func(c *Config) {
		c.Faults = FaultPlan{FailMode: FailContinue, FailRank: 3, FailAtStep: 3}
	}
	then := func(fs ...func(*Config)) func(*Config) {
		return func(c *Config) {
			for _, f := range fs {
				f(c)
			}
		}
	}
	isHier := func(m string) bool { return m == "hier-sync-sgd" || m == "hier-sync-easgd" }

	var cases []goldenCase
	add := func(name, method string, mut func(*Config)) {
		if isHier(method) {
			mut = then(hier, mut)
		}
		cases = append(cases, goldenCase{name: name, method: method, mutate: mut})
	}
	none := func(*Config) {}
	for _, m := range supportMethods() {
		add(m, m, none)
	}
	for _, m := range []string{"sync-sgd", "sync-easgd3", "knl-cluster-easgd", "async-sgd", "original-easgd", "hier-sync-sgd"} {
		add(m+"/overlap", m, overlap)
	}
	for _, m := range []string{"hier-sync-sgd", "hier-sync-easgd"} {
		add(m+"/tree-rhd", m, func(c *Config) {
			c.Schedule, c.HierSchedule = comm.ScheduleTree, comm.ScheduleRHD
			c.TauLocal, c.TauGlobal = 2, 4
		})
		add(m+"/chain-ring", m, func(c *Config) {
			c.Schedule, c.HierSchedule = comm.ScheduleChain, comm.ScheduleRing
		})
	}
	for _, s := range []comm.Schedule{comm.ScheduleRing, comm.ScheduleRHD, comm.ScheduleChain, comm.ScheduleLinear} {
		s := s
		add("sync-sgd/"+s.String(), "sync-sgd", func(c *Config) { c.Schedule = s })
		add("knl-cluster-easgd/"+s.String(), "knl-cluster-easgd", func(c *Config) { c.Schedule = s })
	}
	for _, m := range []string{"sync-sgd", "sync-easgd1", "original-easgd"} {
		add(m+"/unpacked", m, func(c *Config) { c.Platform = DefaultGPUPlatform(false) })
	}
	for _, mode := range []CommMode{CommSFB, CommHybrid} {
		mode := mode
		set := func(c *Config) { c.CommMode = mode }
		add("sync-sgd/"+mode.String(), "sync-sgd", set)
		add("sync-sgd/"+mode.String()+"+overlap", "sync-sgd", then(set, overlap))
		add("hier-sync-sgd/"+mode.String(), "hier-sync-sgd", set)
	}
	compress := func(c *Config) { c.Compression = quant.OneBit }
	for _, m := range []string{"sync-sgd", "hier-sync-sgd", "async-sgd", "async-easgd", "original-easgd"} {
		add(m+"/1bit", m, compress)
	}
	add("sync-sgd/1bit+overlap", "sync-sgd", then(compress, overlap))
	for _, m := range []string{"sync-sgd", "sync-easgd1", "sync-easgd3", "hier-sync-sgd", "hier-sync-easgd"} {
		add(m+"/loss0.05", m, lossy)
	}
	add("sync-sgd/loss0.05+overlap", "sync-sgd", then(lossy, overlap))
	add("sync-sgd/bad-link", "sync-sgd", func(c *Config) {
		c.Faults = FaultPlan{BadLinks: []BadLink{{From: 1, To: 0, Corrupt: 0.3}}, FaultSeed: 5}
	})
	for _, m := range []string{"sync-sgd", "hier-sync-sgd"} {
		add(m+"/fail-continue", m, failCont)
		add(m+"/fail-continue+overlap", m, then(failCont, overlap))
	}
	add("sync-sgd/partial-k", "sync-sgd", func(c *Config) {
		c.Faults = FaultPlan{
			PartialK:        3,
			StragglerFactor: 6, StragglerRanks: []int{2}, StragglerFrom: 2, StragglerUntil: 5,
		}
	})
	for _, m := range []string{"sync-sgd", "sync-easgd1", "sync-easgd3", "knl-cluster-easgd",
		"hier-sync-sgd", "hier-sync-easgd", "async-sgd", "hogwild-easgd", "original-easgd"} {
		add(m+"/straggler+ckpt", m, straggle)
	}
	add("sync-sgd/straggler+ckpt+overlap", "sync-sgd", then(straggle, overlap))
	add("knl-cluster-easgd/straggler+ckpt+overlap", "knl-cluster-easgd", then(straggle, overlap))
	return cases
}

// runGolden executes one battery row on the shared TinyCNN setup.
func runGolden(t *testing.T, gc goldenCase) Result {
	t.Helper()
	cfg := testConfig(t, 6, true)
	cfg.EvalEvery = 2
	cfg.Test = nil // accuracy is not pinned; probes still record their instants
	if gc.method == "original-easgd" || gc.method == "original-easgd*" {
		cfg.Iterations = 12 // one batch per master iteration
	}
	gc.mutate(&cfg)
	res, err := runMethod(gc.method, cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return res
}

// TestGoldenSimulatedClock pins the simulated clock, the breakdown, the wire
// bytes and the curve instants of the whole battery, bit for bit. It runs
// under -short on purpose: the race-widths CI legs (pool widths 1 and 4,
// three kernel tiers) are the proof the file is width- and tier-independent.
func TestGoldenSimulatedClock(t *testing.T) {
	got := map[string]clockRecord{}
	for _, gc := range goldenBattery() {
		if _, dup := got[gc.name]; dup {
			t.Fatalf("duplicate battery row %q", gc.name)
		}
		res := runGolden(t, gc)
		if sum := res.Breakdown.Total(); math.Abs(sum-res.SimTime) > 1e-9*res.SimTime {
			t.Errorf("%s: breakdown sums to %v, wall %v", gc.name, sum, res.SimTime)
		}
		got[gc.name] = clockOf(res)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenClockPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), goldenClockPath)
		return
	}
	b, err := os.ReadFile(goldenClockPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := map[string]clockRecord{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d rows, battery has %d", len(want), len(got))
	}
	for _, gc := range goldenBattery() {
		w, ok := want[gc.name]
		if !ok {
			t.Errorf("%s: no golden row", gc.name)
			continue
		}
		if g := got[gc.name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: simulated clock moved\n got %+v\nwant %+v", gc.name, g, w)
		}
	}
}
