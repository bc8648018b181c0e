package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"scaledl/internal/comm"
)

// hierConfig builds the 2-node × 2-GPU composed-cluster counterpart of
// testConfig (same 4 workers, same seeds — so flat and hierarchical runs
// are comparable sample for sample).
func hierConfig(t *testing.T, iters int) Config {
	t.Helper()
	cfg := testConfig(t, iters, true)
	cfg.Nodes, cfg.GPUsPerNode = 2, 2
	return cfg
}

// The hierarchical allreduce is bit-identical to ReduceSum, so hier-sync-sgd
// must reproduce the flat SyncSGD's training mathematics exactly — losses,
// accuracies and curves — with only the simulated time differing (the bytes
// travel a two-level topology instead of one PCIe tree).
func TestHierSyncSGDMatchesFlatMath(t *testing.T) {
	flatCfg := testConfig(t, 25, true)
	flatCfg.EvalEvery = 5
	flat, err := SyncSGD(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct{ intra, inter comm.Schedule }{
		{comm.ScheduleTree, comm.ScheduleTree},
		{comm.ScheduleRing, comm.ScheduleRHD},
		{comm.ScheduleChain, comm.ScheduleRing},
	} {
		cfg := hierConfig(t, 25)
		cfg.EvalEvery = 5
		cfg.Schedule = pair.intra
		cfg.HierSchedule = pair.inter
		hier, err := HierSyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hier.FinalLoss != flat.FinalLoss || hier.FinalAcc != flat.FinalAcc {
			t.Errorf("%v/%v: hier loss/acc %v/%v differ from flat %v/%v",
				pair.intra, pair.inter, hier.FinalLoss, hier.FinalAcc, flat.FinalLoss, flat.FinalAcc)
		}
		if len(hier.Curve) != len(flat.Curve) {
			t.Fatalf("curve lengths differ: %d vs %d", len(hier.Curve), len(flat.Curve))
		}
		for i := range hier.Curve {
			if hier.Curve[i].Loss != flat.Curve[i].Loss || hier.Curve[i].TestAcc != flat.Curve[i].TestAcc {
				t.Errorf("%v/%v: curve point %d diverged", pair.intra, pair.inter, i)
			}
		}
	}
}

// The streaming pipeline's bucketed Range collectives are hierarchical for
// free: overlap on, any bucket size, the mathematics stays bit-identical to
// the monolithic flat run.
func TestHierSyncSGDOverlapBitIdentical(t *testing.T) {
	base, err := SyncSGD(testConfig(t, 20, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, bucketBytes := range []int64{0, 4 << 10, 64 << 10} {
		cfg := hierConfig(t, 20)
		cfg.Overlap = true
		cfg.BucketBytes = bucketBytes
		cfg.HierSchedule = comm.ScheduleRHD
		res, err := HierSyncSGD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalLoss != base.FinalLoss || res.FinalAcc != base.FinalAcc {
			t.Errorf("bucket=%d: overlapped hier math diverged from flat monolithic", bucketBytes)
		}
	}
}

// hier-sync-sgd is deterministic and the composed topology actually routes
// parameter traffic (nonzero wire bytes).
func TestHierSyncSGDDeterministicAndMovesBytes(t *testing.T) {
	r1, err1 := HierSyncSGD(hierConfig(t, 15))
	r2, err2 := HierSyncSGD(hierConfig(t, 15))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.SimTime != r2.SimTime || r1.FinalLoss != r2.FinalLoss {
		t.Error("hier-sync-sgd not deterministic across identical runs")
	}
	if r1.Breakdown.ParamTraffic() == 0 {
		t.Error("no parameter traffic recorded")
	}
}

// hier-sync-easgd: group syncs every TauLocal steps, center syncs every
// TauGlobal steps — the fabric sees 1/TauGlobal of the rounds — and the
// run learns, deterministically.
func TestHierSyncEASGDTauStructure(t *testing.T) {
	cfg := hierConfig(t, 24)
	cfg.TauLocal, cfg.TauGlobal = 2, 6
	res, err := HierSyncEASGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(24 / 6); res.Updates() != want {
		t.Errorf("global center updates %d, want iterations/TauGlobal = %d", res.Updates(), want)
	}
	if res.FinalAcc < 0.5 {
		t.Errorf("hier-sync-easgd accuracy %.3f, should beat 0.5", res.FinalAcc)
	}
	again, err := HierSyncEASGD(func() Config {
		c := hierConfig(t, 24)
		c.TauLocal, c.TauGlobal = 2, 6
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if again.SimTime != res.SimTime || again.FinalLoss != res.FinalLoss {
		t.Error("hier-sync-easgd not deterministic")
	}

	// Rarer center syncs spend less simulated time for the same steps.
	lazy := hierConfig(t, 24)
	lazy.TauLocal, lazy.TauGlobal = 2, 12
	lazyRes, err := HierSyncEASGD(lazy)
	if err != nil {
		t.Fatal(err)
	}
	if lazyRes.SimTime >= res.SimTime {
		t.Errorf("TauGlobal 12 (%v) not faster than 6 (%v)", lazyRes.SimTime, res.SimTime)
	}
}

// The first recorded curve point averages every worker's *current-step*
// loss: before any update, the four workers compute exactly the same first
// batches as flat SyncSGD (same seeds, same initial weights), so the two
// methods' first eval points must agree bit for bit. (Guards the eval
// barrier: without it rank 0 could read peers' losses before they were
// written on steps with no collective.)
func TestHierSyncEASGDFirstCurvePointFresh(t *testing.T) {
	cfg := hierConfig(t, 6)
	cfg.EvalEvery = 1
	cfg.TauLocal, cfg.TauGlobal = 3, 6 // step 1 runs no collective at all
	res, err := HierSyncEASGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flatCfg := testConfig(t, 6, true)
	flatCfg.EvalEvery = 1
	flat, err := SyncSGD(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 || len(flat.Curve) == 0 {
		t.Fatal("missing curve points")
	}
	if res.Curve[0].Loss != flat.Curve[0].Loss {
		t.Errorf("first eval point %v != flat SyncSGD's %v (stale loss read?)",
			res.Curve[0].Loss, flat.Curve[0].Loss)
	}
}

// Wire traffic is attributed per level: intra-node bytes to gpu-gpu para,
// fabric bytes to cpu-gpu para, and the two together equal the topology's
// total parameter traffic.
func TestHierSyncEASGDByteAttribution(t *testing.T) {
	cfg := hierConfig(t, 12)
	cfg.TauLocal, cfg.TauGlobal = 2, 4
	res, err := HierSyncEASGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intra := res.Breakdown.Bytes[CatGPUGPUParam]
	fabric := res.Breakdown.Bytes[CatCPUGPUParam]
	if intra == 0 || fabric == 0 {
		t.Errorf("missing per-level traffic: intra %d, fabric %d", intra, fabric)
	}
	// 6 group syncs move more intra bytes than 3 fabric allreduces move
	// fabric bytes (4 leaders vs 2... 2 nodes here: reduce+bcast per group
	// of 2 vs allreduce over 2 leaders), and both scale with the model.
	if fabric >= intra {
		t.Errorf("fabric traffic %d not below intra traffic %d for tau 2/4", fabric, intra)
	}
}

// The exposed-time breakdown of the hierarchical algorithms still sums to
// the simulated wall clock.
func TestHierBreakdownSumsToWall(t *testing.T) {
	for _, name := range []string{"hier-sync-sgd", "hier-sync-easgd"} {
		cfg := hierConfig(t, 18)
		cfg.TauLocal, cfg.TauGlobal = 1, 3
		res, err := Methods[name](cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := res.Breakdown.Total()
		if rel := math.Abs(sum-res.SimTime) / res.SimTime; rel > 0.02 {
			t.Errorf("%s: breakdown sum %.6f vs wall %.6f (rel %.3f)", name, sum, res.SimTime, rel)
		}
	}
}

// Validate's hierarchical plumbing: Workers derived from Nodes×GPUsPerNode,
// mismatches and bad τ rejected, flat methods needing no hier fields, hier
// methods rejecting flat configs.
func TestHierConfigValidation(t *testing.T) {
	cfg := hierConfig(t, 5)
	cfg.Workers = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 {
		t.Errorf("Workers not derived: %d", cfg.Workers)
	}
	if cfg.TauLocal != 1 || cfg.TauGlobal != 4 {
		t.Errorf("tau defaults %d/%d, want 1/4", cfg.TauLocal, cfg.TauGlobal)
	}

	bad := hierConfig(t, 5)
	bad.Workers = 3
	if err := bad.Validate(); err == nil {
		t.Error("workers/nodes mismatch not rejected")
	}
	bad2 := hierConfig(t, 5)
	bad2.TauLocal, bad2.TauGlobal = 4, 2
	if err := bad2.Validate(); err == nil {
		t.Error("TauGlobal < TauLocal not rejected")
	}
	bad3 := hierConfig(t, 5)
	bad3.GPUsPerNode = 0
	if err := bad3.Validate(); err == nil {
		t.Error("Nodes without GPUsPerNode not rejected")
	}
	for name, run := range map[string]Runner{"hier-sync-sgd": HierSyncSGD, "hier-sync-easgd": HierSyncEASGD} {
		var ue *UnsupportedError
		if _, err := run(testConfig(t, 5, true)); !errors.As(err, &ue) {
			t.Errorf("%s on a flat config: want *UnsupportedError, got %v", name, err)
		} else if ue.Method != name || ue.Knob != "flat-cluster" {
			t.Errorf("%s on a flat config: refusal names %s × %s", name, ue.Method, ue.Knob)
		}
	}
}

// Single-node degenerate case: 1×P hierarchical training equals the flat
// mathematics and runs without fabric traffic surprises.
func TestHierSingleNodeDegenerate(t *testing.T) {
	cfg := testConfig(t, 10, true)
	cfg.Nodes, cfg.GPUsPerNode = 1, 4
	res, err := HierSyncSGD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := SyncSGD(testConfig(t, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss != flat.FinalLoss {
		t.Error("1-node hier-sync-sgd diverged from flat math")
	}
	if !reflect.DeepEqual(res.Curve, flat.Curve) && len(res.Curve) != len(flat.Curve) {
		t.Error("curves diverged")
	}
}
