package core

import (
	"math"
	"testing"

	"scaledl/internal/hw"
)

func TestKNLClusterEASGDLearnsAndIsDeterministic(t *testing.T) {
	mk := func() KNLClusterConfig {
		cfg := testConfig(t, 40, true)
		cfg.EvalEvery = 10
		return KNLClusterConfig{
			Config: cfg,
			Fabric: hw.Link{Name: "fabric", Alpha: 1.5e-6, Beta: 1 / 8e9},
		}
	}
	r1, err := KNLClusterEASGD(mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalAcc < 0.5 {
		t.Errorf("accuracy %.3f too low", r1.FinalAcc)
	}
	if r1.SimTime <= 0 || len(r1.Curve) == 0 {
		t.Errorf("incomplete result: %+v", r1)
	}
	r2, err := KNLClusterEASGD(mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalAcc != r2.FinalAcc || r1.SimTime != r2.SimTime {
		t.Error("same-seed cluster runs differ")
	}
}

func TestKNLClusterMatchesCoordinatorSemantics(t *testing.T) {
	// Algorithm 4 and Sync EASGD are one algorithm — the same row of the step
	// frame with a different topology and master placement — and the
	// collective engine's ordered reduction gives both the identical
	// (rank-ordered) sums. With the same seed the training mathematics is
	// therefore bit-identical: final loss and accuracy, and every curve
	// point's iteration, mean-over-ranks loss and test accuracy. Only the
	// simulated clock differs (a fabric instead of a PCIe tree), so a
	// point's SimTime is the one field not compared.
	mk := func() Config {
		cfg := testConfig(t, 25, true)
		cfg.EvalEvery = 5
		return cfg
	}
	sync2, err := SyncEASGD2(mk())
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := KNLClusterEASGD(KNLClusterConfig{Config: mk()})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.FinalLoss != sync2.FinalLoss || cluster.FinalAcc != sync2.FinalAcc {
		t.Errorf("final loss/acc: cluster %v/%v vs sync-easgd2 %v/%v",
			cluster.FinalLoss, cluster.FinalAcc, sync2.FinalLoss, sync2.FinalAcc)
	}
	if len(cluster.Curve) != len(sync2.Curve) || len(cluster.Curve) == 0 {
		t.Fatalf("curve lengths %d vs %d", len(cluster.Curve), len(sync2.Curve))
	}
	for i, c := range cluster.Curve {
		s := sync2.Curve[i]
		if c.Iter != s.Iter || c.Loss != s.Loss || c.TestAcc != s.TestAcc {
			t.Errorf("curve point %d: cluster %+v vs sync-easgd2 %+v", i, c, s)
		}
	}
}

func TestKNLClusterWeakScalingPerIter(t *testing.T) {
	fabric := hw.Link{Name: "fabric", Alpha: 1.5e-6, Beta: 1e-9}
	compute := 0.1
	t1, err := KNLClusterWeakScaling(1, 28<<20, compute, fabric, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-compute) > 1e-9 {
		t.Errorf("single node per-iter %v, want pure compute %v", t1, compute)
	}
	prev := t1
	for _, nodes := range []int{2, 8, 32} {
		ti, err := KNLClusterWeakScaling(nodes, 28<<20, compute, fabric, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ti <= prev {
			t.Errorf("per-iter time should grow with nodes: %v at %d", ti, nodes)
		}
		prev = ti
	}
	// Growth must be logarithmic-ish: 32 nodes adds ~5 bcast+5 reduce waves
	// of 28 MB over 1 GB/s ≈ 0.28s, not the ~0.9s a linear chain would.
	t32, _ := KNLClusterWeakScaling(32, 28<<20, compute, fabric, 3)
	overhead := t32 - compute
	waves := 28.0 * 1024 * 1024 * 1e-9 // one full-model wave
	if overhead > 14*waves {
		t.Errorf("32-node overhead %v exceeds ~2·log2(32)+slack waves (%v each)", overhead, waves)
	}
	if _, err := KNLClusterWeakScaling(0, 1, 1, fabric, 1); err == nil {
		t.Error("0 nodes did not error")
	}
}

func TestCenterDrift(t *testing.T) {
	center := []float32{1, 1}
	a := []float32{2, 0}
	b := []float32{0, 2}
	// mean(a,b) = (1,1) = center → drift 0.
	if d := CenterDrift(center, a, b); d > 1e-9 {
		t.Errorf("drift %v, want 0", d)
	}
	if d := CenterDrift(center, []float32{3, 1}); math.Abs(d-2) > 1e-6 {
		t.Errorf("drift %v, want 2", d)
	}
	if d := CenterDrift(center); d != 0 {
		t.Errorf("no locals drift %v", d)
	}
}
