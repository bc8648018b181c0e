package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"scaledl/internal/comm"
	"scaledl/internal/data"
	"scaledl/internal/nn"
	"scaledl/internal/quant"
)

// lenetConfig is testConfig with LeNet — whose fc500 layer is the
// Poseidon-favorable shape (B·(F+D) ≪ F·D) — on a 28×28 synthetic set.
func lenetConfig(t *testing.T, iters int) Config {
	t.Helper()
	spec := data.Spec{Name: "mnistish", Channels: 1, Height: 28, Width: 28, Classes: 10}
	train, test := data.Synthetic(data.Config{Spec: spec, TrainN: 256, TestN: 64, Seed: 5})
	train.Normalize()
	test.Normalize()
	return Config{
		Def:        nn.LeNet(nn.Shape{C: 1, H: 28, W: 28}, 10),
		Train:      train,
		Test:       test,
		Workers:    4,
		Batch:      8,
		LR:         0.01,
		Iterations: iters,
		Seed:       3,
		Platform:   DefaultGPUPlatform(true),
	}
}

// The tentpole invariant end to end: a sync-sgd run in sfb or hybrid comm
// mode trains bit-identically to dense mode — for every schedule, at
// power-of-two and odd worker counts, monolithic and overlapped at several
// bucket sizes. Only where the bytes travel (and the time axis) may change.
func TestSFBBitIdenticalToDenseAllReduce(t *testing.T) {
	type variant struct {
		name        string
		overlap     bool
		bucketBytes int64
	}
	variants := []variant{
		{"monolithic", false, 0},
		{"overlap-tiny-buckets", true, 4},
		{"overlap-4k", true, 4096},
		{"overlap-whole-model", true, 1 << 30},
	}
	for _, sched := range []comm.Schedule{comm.ScheduleTree, comm.ScheduleRing, comm.ScheduleRHD, comm.ScheduleChain} {
		for _, workers := range []int{4, 3} {
			for _, mode := range []CommMode{CommSFB, CommHybrid} {
				run := func(cm CommMode, v variant) Result {
					cfg := testConfig(t, 10, true)
					cfg.Schedule = sched
					cfg.Workers = workers
					cfg.EvalEvery = 5
					cfg.CommMode = cm
					cfg.Overlap = v.overlap
					cfg.BucketBytes = v.bucketBytes
					res, err := SyncSGD(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				for _, v := range variants {
					base := run(CommDense, v)
					res := run(mode, v)
					label := sched.String() + "/" + mode.String() + "/" + v.name
					sameMath(t, label, res, base)
				}
			}
		}
	}
}

// The hierarchical composition keeps the invariant: hier-sync-sgd in sfb
// mode — factors gather at node leaders, allgather over the fabric, fan
// back out — trains bit-identically to its dense twin.
func TestHierSFBBitIdenticalToDense(t *testing.T) {
	run := func(mode CommMode, overlap bool) Result {
		cfg := testConfig(t, 10, true)
		cfg.Nodes, cfg.GPUsPerNode = 2, 2
		cfg.EvalEvery = 5
		cfg.CommMode = mode
		cfg.Overlap = overlap
		cfg.BucketBytes = 4096
		res, err := HierSyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, overlap := range []bool{false, true} {
		base := run(CommDense, overlap)
		for _, mode := range []CommMode{CommSFB, CommHybrid} {
			label := "hier/" + mode.String()
			if overlap {
				label += "/overlap"
			}
			sameMath(t, label, run(mode, overlap), base)
		}
	}
}

// expectedWire computes the run's exact per-iteration parameter wire from
// the selector's shapes: dense layers move the allreduce's 2(P−1) payloads,
// SFB layers the factor allgather's P(P−1) factor pairs — the O(B·(F+D))
// against O(F·D) trade.
func expectedWire(t *testing.T, cfg Config) (perIter, densePerIter int64) {
	t.Helper()
	sel, err := SelectCommModes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumSFB() == 0 {
		t.Fatal("config routes no layer to SFB; the traffic assertion would be vacuous")
	}
	for _, c := range sel.Choices {
		densePerIter += comm.DenseAllReduceBytes(cfg.Workers, c.Elems)
		if c.UseSFB {
			perIter += comm.FactorAllGatherBytes(cfg.Workers, c.B*(c.F+c.D))
		} else {
			perIter += comm.DenseAllReduceBytes(cfg.Workers, c.Elems)
		}
	}
	return perIter, densePerIter
}

// Exact wire accounting: a sync-sgd run in sfb mode moves exactly the
// formula bytes — FactorAllGatherBytes for the fc layers, the dense
// allreduce's bytes for the rest — monolithic and overlapped, tree and
// ring; and on LeNet's Poseidon-shaped fc layers that total undercuts the
// all-dense run's wire.
func TestSFBWireBytesExact(t *testing.T) {
	iters := 4
	for _, sched := range []comm.Schedule{comm.ScheduleTree, comm.ScheduleRing} {
		for _, overlap := range []bool{false, true} {
			cfg := lenetConfig(t, iters)
			cfg.Schedule = sched
			cfg.CommMode = CommSFB
			cfg.Overlap = overlap
			cfg.BucketBytes = 64 << 10
			perIter, densePerIter := expectedWire(t, cfg)
			if perIter >= densePerIter {
				t.Fatalf("LeNet at batch %d should cut wire with SFB: %d vs dense %d",
					cfg.Batch, perIter, densePerIter)
			}
			res, err := SyncSGD(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Breakdown.ParamTraffic()
			want := perIter * int64(iters)
			if got != want {
				t.Errorf("%v overlap=%v: wire %d bytes, want exactly %d", sched, overlap, got, want)
			}

			cfg = lenetConfig(t, iters)
			cfg.Schedule = sched
			cfg.Overlap = overlap
			cfg.BucketBytes = 64 << 10
			dres, err := SyncSGD(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gotD := dres.Breakdown.ParamTraffic(); gotD != densePerIter*int64(iters) {
				t.Errorf("%v overlap=%v dense: wire %d bytes, want exactly %d",
					sched, overlap, gotD, densePerIter*int64(iters))
			}
		}
	}
}

// Under a lossy chaos plan the factor collectives retry like every other
// guarded message: the wire grows by the wasted attempts (every attempt is
// charged), the training mathematics stays bit-identical to the clean run,
// and the retry stalls land in CatRetry.
func TestSFBRetryBytesUnderLossyChaos(t *testing.T) {
	run := func(loss float64) Result {
		cfg := lenetConfig(t, 4)
		cfg.CommMode = CommSFB
		cfg.EvalEvery = 2
		cfg.Faults.LossRate = loss
		res, err := SyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(0)
	lossy := run(0.3)
	sameMath(t, "sfb lossy vs clean", lossy, clean)
	if lossy.Breakdown.ParamTraffic() <= clean.Breakdown.ParamTraffic() {
		t.Errorf("lossy SFB run moved %d bytes, clean %d — retries charge no wire?",
			lossy.Breakdown.ParamTraffic(), clean.Breakdown.ParamTraffic())
	}
	if lossy.SimTime <= clean.SimTime {
		t.Errorf("lossy SFB run not slower: %v vs %v", lossy.SimTime, clean.SimTime)
	}
}

// The selector picks per layer exactly as the cost model dictates: conv
// layers have no factor form and always stay dense; every factorable layer
// is routed by the strict SFBTime < DenseTime comparison; LeNet's big fc500
// (B·(F+D) ≪ F·D at batch 8) wins on both bytes and time; and the decision
// crosses over with batch size — the factor payload grows with B until the
// dense allreduce wins back the layer.
func TestHybridSelectorPicksPerLayer(t *testing.T) {
	cfg := lenetConfig(t, 1)
	cfg.CommMode = CommHybrid
	sel, err := SelectCommModes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fc, conv int
	var bigFC *LayerCommChoice
	for i, c := range sel.Choices {
		if c.SFBOK {
			fc++
			if want := c.SFBTime < c.DenseTime; c.UseSFB != want {
				t.Errorf("fc layer %d: UseSFB=%v disagrees with cost model (dense %.3gs vs sfb %.3gs)",
					c.Layer, c.UseSFB, c.DenseTime, c.SFBTime)
			}
			if c.Elems > 100000 {
				bigFC = &sel.Choices[i]
			}
		} else {
			conv++
			if c.UseSFB {
				t.Errorf("layer %d has no factor form but was routed to SFB", c.Layer)
			}
		}
		if c.String() == "" {
			t.Errorf("layer %d: empty choice rendering", c.Layer)
		}
	}
	if fc != 2 || conv != 2 {
		t.Fatalf("LeNet selector saw %d fc + %d conv layers, want 2 + 2", fc, conv)
	}
	if bigFC == nil {
		t.Fatal("LeNet's fc500 (400k+ params) missing from the choices")
	}
	if bigFC.SFBBytes >= bigFC.DenseBytes || bigFC.SFBTime >= bigFC.DenseTime || !bigFC.UseSFB {
		t.Errorf("fc500 should win on bytes and time at batch 8: %+v", *bigFC)
	}

	// Crossover in B: at batch 2048 the fc500 factor payload B·(F+D) ≈ 2.7M
	// elems dwarfs the 400k dense gradient; the selector must hand the
	// layer back to the dense allreduce.
	big := lenetConfig(t, 1)
	big.Batch = 2048
	big.CommMode = CommHybrid
	bsel, err := SelectCommModes(big)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range bsel.Choices {
		if c.SFBOK && c.Elems > 100000 && c.UseSFB {
			t.Errorf("fc500 still routed to SFB at batch 2048 (dense %.3gs vs sfb %.3gs)", c.DenseTime, c.SFBTime)
		}
	}

	// sfb mode overrides the cost model: every factorable layer ships
	// factors regardless of the comparison.
	all := lenetConfig(t, 1)
	all.CommMode = CommSFB
	asel, err := SelectCommModes(all)
	if err != nil {
		t.Fatal(err)
	}
	if asel.NumSFB() != 2 {
		t.Errorf("sfb mode routed %d of 2 factorable layers", asel.NumSFB())
	}
}

// Reconstruction compute is charged and attributed: an sfb run reports
// CatSFBRecon > 0, the category prints a name, and the breakdown still sums
// to the simulated wall time — monolithic and overlapped.
func TestSFBBreakdownSumsToWall(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		cfg := lenetConfig(t, 4)
		cfg.CommMode = CommSFB
		cfg.Overlap = overlap
		cfg.BucketBytes = 64 << 10
		res, err := SyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown.Times[CatSFBRecon] <= 0 {
			t.Errorf("overlap=%v: no reconstruction time charged", overlap)
		}
		if res.Breakdown.Bytes[CatSFBRecon] != 0 {
			t.Errorf("overlap=%v: reconstruction charged %d wire bytes; it moves none",
				overlap, res.Breakdown.Bytes[CatSFBRecon])
		}
		sum := res.Breakdown.Total()
		if rel := math.Abs(sum-res.SimTime) / res.SimTime; rel > 0.02 {
			t.Errorf("overlap=%v: breakdown sum %.6f vs wall %.6f (rel %.4f)", overlap, sum, res.SimTime, rel)
		}
	}
}

// The hybrid mode's promise at the operating point: on the fc-heavy shape
// the best hybrid step time is no worse than the best dense step time (it
// strictly wins on wire; time may tie when communication is already
// hidden), and dense mode stays the default zero value.
func TestHybridNoWorseThanDenseOnFCHeavy(t *testing.T) {
	run := func(mode CommMode) Result {
		cfg := lenetConfig(t, 4)
		cfg.CommMode = mode
		res, err := SyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := run(CommDense)
	hybrid := run(CommHybrid)
	if hybrid.SimTime > dense.SimTime*(1+1e-9) {
		t.Errorf("hybrid step time %v worse than dense %v on the fc-heavy shape", hybrid.SimTime, dense.SimTime)
	}
	if hybrid.Breakdown.ParamTraffic() >= dense.Breakdown.ParamTraffic() {
		t.Errorf("hybrid wire %d not below dense %d", hybrid.Breakdown.ParamTraffic(), dense.Breakdown.ParamTraffic())
	}
}

// Mode parsing and the validation fences: unknown names are rejected with
// the mode list, and sfb/hybrid refuse the combinations the factor
// transport has no form for.
func TestCommModeParsingAndValidation(t *testing.T) {
	for name, want := range map[string]CommMode{"": CommDense, "dense": CommDense, "sfb": CommSFB, "hybrid": CommHybrid} {
		got, err := ParseCommMode(name)
		if err != nil || got != want {
			t.Errorf("ParseCommMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseCommMode("bogus"); err == nil || !strings.Contains(err.Error(), "dense") {
		t.Errorf("ParseCommMode(bogus) error %v should name the valid modes", err)
	}
	for _, m := range []CommMode{CommDense, CommSFB, CommHybrid} {
		if ParseCommModeRoundTrip := m.String(); ParseCommModeRoundTrip == "" {
			t.Errorf("mode %d has empty name", int(m))
		}
	}

	// wantKnob names the support-table column of a typed refusal; "" means a
	// plain validation error.
	bad := func(mut func(*Config), wantSub, wantKnob string) {
		t.Helper()
		cfg := testConfig(t, 2, true)
		cfg.CommMode = CommSFB
		mut(&cfg)
		_, err := SyncSGD(cfg)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("want error containing %q, got %v", wantSub, err)
		}
		var ue *UnsupportedError
		if errors.As(err, &ue) != (wantKnob != "") || (ue != nil && ue.Knob != wantKnob) {
			t.Errorf("want refusal of knob %q, got %v", wantKnob, err)
		}
	}
	bad(func(c *Config) { c.Compression = quant.OneBit }, "compression", "comm-mode+compression")
	bad(func(c *Config) { c.Faults.PartialK = 2 }, "partial aggregation", "comm-mode+partial-k")
	bad(func(c *Config) {
		c.Faults.FailMode = FailContinue
		c.Faults.FailAtStep = 1
		c.Faults.FailRank = 1
	}, "fail-continue", "comm-mode+fail-continue")
	bad(func(c *Config) { c.CommMode = CommMode(99) }, "comm mode", "")
}
