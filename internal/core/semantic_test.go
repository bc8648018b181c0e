package core

import (
	"errors"
	"fmt"
	"testing"
)

// Tests of the semantic fault tier: message loss and corruption with
// retries, fail-stop-without-checkpoint continuation, and partial
// aggregation. Two invariants matter. Loss/corruption alone never changes
// the mathematics — every message is eventually delivered pristine, so the
// faulty run's losses and curves are bit-identical to the clean twin's and
// only time and wire bytes inflate. Membership-changing faults
// (fail-continue, partial drops) may change the mathematics, but
// deterministically: the same configuration and fault seed reproduce the
// run bit-for-bit.

// sameDrops asserts two runs dropped the same ranks at the same steps.
func sameDrops(t *testing.T, a, b Result) {
	t.Helper()
	if len(a.Dropped) != len(b.Dropped) {
		t.Fatalf("drop logs differ in length: %d vs %d", len(a.Dropped), len(b.Dropped))
	}
	for i := range a.Dropped {
		if a.Dropped[i].Step != b.Dropped[i].Step || len(a.Dropped[i].Ranks) != len(b.Dropped[i].Ranks) {
			t.Fatalf("drop record %d differs: %+v vs %+v", i, a.Dropped[i], b.Dropped[i])
		}
		for j := range a.Dropped[i].Ranks {
			if a.Dropped[i].Ranks[j] != b.Dropped[i].Ranks[j] {
				t.Fatalf("drop record %d differs: %+v vs %+v", i, a.Dropped[i], b.Dropped[i])
			}
		}
	}
}

// Message loss is absorbed by the retry protocol: the math is bit-identical
// to the clean twin, while the retries cost simulated time (surfaced as
// CatRetry at the root) and extra wire bytes (visible in Breakdown.Bytes).
func TestLossyRunKeepsMathPaysTimeAndBytes(t *testing.T) {
	clean, err := SyncSGD(testConfig(t, 30, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 30, true)
	cfg.Faults = FaultPlan{LossRate: 0.1, FaultSeed: 5}
	lossy, err := SyncSGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalMath(t, clean, lossy)
	if lossy.SimTime <= clean.SimTime {
		t.Errorf("loss cost no time: %v vs clean %v", lossy.SimTime, clean.SimTime)
	}
	if lossy.Breakdown.ParamTraffic() <= clean.Breakdown.ParamTraffic() {
		t.Errorf("retry traffic not visible in Breakdown.Bytes: %d vs clean %d",
			lossy.Breakdown.ParamTraffic(), clean.Breakdown.ParamTraffic())
	}
	if lossy.Breakdown.Times[CatRetry] <= 0 {
		t.Errorf("no retry time surfaced at the root")
	}
	if clean.Breakdown.Times[CatRetry] != 0 || clean.Breakdown.Times[CatDropped] != 0 {
		t.Errorf("clean run charged fault categories: %+v", clean.Breakdown)
	}
}

// The fault plan is seed-deterministic: repeating a lossy run reproduces it
// bit-for-bit (timing included), and a different seed injects different
// faults.
func TestLossyRunDeterministicAcrossRepeats(t *testing.T) {
	mk := func(seed int64) Result {
		cfg := testConfig(t, 25, true)
		cfg.Faults = FaultPlan{LossRate: 0.12, CorruptRate: 0.05, FaultSeed: seed}
		res, err := SyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(21), mk(21)
	identicalResult(t, a, b)
	if other := mk(22); other.SimTime == a.SimTime {
		t.Errorf("different fault seed reproduced the identical timing %v", a.SimTime)
	}
}

// A single corrupted-payload link (the "one bad cable"): checksums detect
// every garbled delivery and the resends keep the math clean.
func TestCorruptBadLinkKeepsMath(t *testing.T) {
	clean, err := SyncSGD(testConfig(t, 30, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 30, true)
	cfg.Faults = FaultPlan{
		BadLinks:  []BadLink{{From: 1, To: 0, Corrupt: 0.4}},
		FaultSeed: 9,
	}
	faulty, err := SyncSGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalMath(t, clean, faulty)
	if faulty.SimTime <= clean.SimTime {
		t.Errorf("corruption cost no time: %v vs clean %v", faulty.SimTime, clean.SimTime)
	}
}

// The EASGD collectives ride the same guarded path — Sync EASGD3 (with its
// streamed broadcast pipeline) under loss keeps its math bit-identical too.
func TestEASGDLossyKeepsMath(t *testing.T) {
	clean, err := SyncEASGD3(testConfig(t, 25, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 25, true)
	cfg.Faults = FaultPlan{LossRate: 0.08, FaultSeed: 3}
	lossy, err := SyncEASGD3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalMath(t, clean, lossy)
	if lossy.SimTime <= clean.SimTime {
		t.Errorf("loss cost no time: %v vs clean %v", lossy.SimTime, clean.SimTime)
	}
}

// Fail-stop without checkpoint: the rank dies for good, the survivors
// shrink the membership and finish the run — deterministically, with the
// sample stream reflecting the smaller fleet from the fail step on.
func TestFailContinueSurvivorsFinish(t *testing.T) {
	const iters, failAt = 30, 10
	mk := func() Result {
		cfg := testConfig(t, iters, true)
		cfg.Faults = FaultPlan{FailMode: FailContinue, FailRank: 2, FailAtStep: failAt}
		res, err := SyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	identicalResult(t, a, b)
	// Steps 1..failAt-1 consume batch×P samples, the rest batch×(P−1).
	cfg := testConfig(t, iters, true)
	want := int64(cfg.Batch) * int64((failAt-1)*cfg.Workers+(iters-failAt+1)*(cfg.Workers-1))
	if a.Samples != want {
		t.Errorf("samples = %d, want %d (membership shrank at step %d)", a.Samples, want, failAt)
	}
	clean, err := SyncSGD(testConfig(t, iters, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss == clean.FinalLoss {
		t.Errorf("losing a worker's shard left the final loss unchanged (%v)", a.FinalLoss)
	}
}

// The hierarchical run shares the loop and the survivor machinery: a dead
// rank's group re-forms and the run completes.
func TestHierFailContinueSurvivorsFinish(t *testing.T) {
	mk := func() Result {
		cfg := testConfig(t, 20, true)
		cfg.Nodes, cfg.GPUsPerNode = 2, 2
		cfg.Faults = FaultPlan{FailMode: FailContinue, FailRank: 3, FailAtStep: 8}
		res, err := HierSyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	identicalResult(t, a, b)
}

// Partial aggregation with the full quorum required and no late ranks is
// mathematically the allreduce: same rank-ordered sum, bit-identical
// losses — only the gather's wire pattern (and so the timing) differs.
func TestPartialFullQuorumKeepsMath(t *testing.T) {
	clean, err := SyncSGD(testConfig(t, 25, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 25, true)
	cfg.Faults = FaultPlan{PartialK: cfg.Workers}
	partial, err := SyncSGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	identicalMath(t, clean, partial)
	if len(partial.Dropped) != 0 {
		t.Errorf("full-quorum run dropped gradients: %+v", partial.Dropped)
	}
}

// A hard straggler under partial aggregation misses the deadline: its
// gradient is dropped from (at least) the straggling steps, the drops are
// logged and seed-stable, and the coordinator's deadline wait surfaces as
// CatDropped.
func TestPartialAggregationDropsStraggler(t *testing.T) {
	mk := func() Result {
		cfg := testConfig(t, 20, true)
		cfg.Faults = FaultPlan{
			PartialK:        3,
			StragglerFactor: 40,
			StragglerRanks:  []int{1},
		}
		res, err := SyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	identicalResult(t, a, b)
	sameDrops(t, a, b)
	if len(a.Dropped) == 0 {
		t.Fatal("straggler was never dropped")
	}
	for _, d := range a.Dropped {
		if len(d.Ranks) != 1 || d.Ranks[0] != 1 {
			t.Errorf("unexpected drop record %+v (want rank 1 only)", d)
		}
	}
	if a.Breakdown.Times[CatDropped] <= 0 {
		t.Errorf("no deadline wait surfaced as CatDropped")
	}
}

// The acceptance scenario: 5%% message loss, one corrupted-payload link and
// a mid-run fail-stop with no checkpoint, all at once. The run completes
// without deadlock and repeats bit-for-bit under the same fault seed.
func TestChaosAcceptanceScenario(t *testing.T) {
	mk := func() Result {
		cfg := testConfig(t, 30, true)
		cfg.Faults = FaultPlan{
			LossRate:   0.05,
			BadLinks:   []BadLink{{From: 1, To: 0, Corrupt: 0.3}},
			FaultSeed:  11,
			FailMode:   FailContinue,
			FailRank:   3,
			FailAtStep: 15,
		}
		res, err := SyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	identicalResult(t, a, b)
	if a.SimTime <= 0 {
		t.Fatal("run did not advance")
	}
}

// Methods whose parameter traffic bypasses the guarded message path must
// reject semantic knobs instead of silently ignoring them; the collective
// families reject only the membership-changing knobs they cannot honor.
func TestSemanticKnobsRejectedWhereUnsupported(t *testing.T) {
	// refused asserts the typed refusal: an *UnsupportedError naming the
	// method and the knob column of the support table.
	refused := func(what string, err error, method, knob string) {
		t.Helper()
		var ue *UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("%s: want *UnsupportedError, got %v", what, err)
		} else if ue.Method != method || ue.Knob != knob {
			t.Errorf("%s: refusal names %s × %s, want %s × %s", what, ue.Method, ue.Knob, method, knob)
		}
	}
	cases := []struct {
		method string
		faults FaultPlan
		knob   string
	}{
		{"async-sgd", FaultPlan{LossRate: 0.1}, "loss"},
		{"hogwild-easgd", FaultPlan{CorruptRate: 0.1}, "loss"},
		{"original-easgd*", FaultPlan{LossRate: 0.1}, "loss"},
		{"async-sgd", FaultPlan{FailMode: FailContinue, FailRank: 1, FailAtStep: 5}, "fail-continue"},
		{"sync-easgd3", FaultPlan{FailMode: FailContinue, FailRank: 1, FailAtStep: 5}, "fail-continue"},
		{"sync-easgd3", FaultPlan{PartialK: 2}, "partial-k"},
	}
	for _, c := range cases {
		cfg := testConfig(t, 5, true)
		cfg.Faults = c.faults
		_, err := Methods[c.method](cfg)
		refused(fmt.Sprintf("%s with %+v", c.method, c.faults), err, c.method, c.knob)
	}

	hier := testConfig(t, 5, true)
	hier.Nodes, hier.GPUsPerNode = 2, 2
	hier.Faults = FaultPlan{PartialK: 2}
	_, err := HierSyncSGD(hier)
	refused("hier-sync-sgd with partial aggregation", err, "hier-sync-sgd", "partial-k")
	hier.Faults = FaultPlan{LossRate: 0.1, BadLinks: []BadLink{{From: 0, To: 1, Loss: 0.1}}}
	_, err = HierSyncSGD(hier)
	refused("hier-sync-sgd with BadLinks", err, "hier-sync-sgd", "bad-links")
	overlap := testConfig(t, 5, true)
	overlap.Overlap = true
	overlap.Faults = FaultPlan{PartialK: 2}
	_, err = SyncSGD(overlap)
	refused("sync-sgd with PartialK and Overlap", err, "sync-sgd", "partial-k+overlap")
}

// Semantic-knob validation, including the unconditional FailRank bound: a
// plan naming a rank the run does not have is rejected even while dormant.
func TestSemanticFaultPlanValidation(t *testing.T) {
	bad := []FaultPlan{
		{FailRank: 7}, // no FailAtStep — still out of range for 4 workers
		{FailRank: -1},
		{LossRate: 1.2},
		{CorruptRate: -0.1},
		{LossRate: 0.6, CorruptRate: 0.5},
		{FailMode: "bogus"},
		{FailMode: FailContinue}, // needs FailAtStep
		{FailMode: FailContinue, FailAtStep: 5, FailRank: 0},
		{PartialK: 9},
		{PartialK: -1},
		{PartialDeadline: -1},
		{MaxSendAttempts: -1},
		{BadLinks: []BadLink{{From: 0, To: 9, Loss: 0.1}}},
		{BadLinks: []BadLink{{From: 2, To: 2, Loss: 0.1}}},
		{LossRate: 0.5, BadLinks: []BadLink{{From: 0, To: 1, Loss: 0.5}}},
	}
	for i, f := range bad {
		cfg := testConfig(t, 5, true)
		cfg.Faults = f
		if _, err := SyncSGD(cfg); err == nil {
			t.Errorf("bad fault plan %d accepted: %+v", i, f)
		}
	}
}
