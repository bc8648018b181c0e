package core

import (
	"runtime"
	"testing"

	"scaledl/internal/data"
	"scaledl/internal/nn"
)

// The comm-bound configuration (hier-sync-sgd 4×4, LeNet, b=2, bucketed
// overlap — many payload collectives per sample of real math) pins the
// host-side allocation budget of a Train call: replicas are built without a
// throwaway Xavier fill, the exchange runs in place on the replicas'
// gradients and the collectives borrow instead of copying, so one warm run
// stays under 1200 KB per training sample (copying cost about 3000 KB). The
// mathematics is untouched: the loss is bit-equal to the flat monolithic
// sync-sgd twin over the same 16 workers.
func TestHierOverlapAllocationBudget(t *testing.T) {
	train, test := data.Synthetic(data.Config{Spec: data.MNISTSpec, TrainN: 512, TestN: 64, Seed: 1})
	train.Normalize()
	test.Normalize()
	cfg := Config{
		Def:        nn.LeNet(nn.Shape{C: 1, H: 28, W: 28}, 10),
		Train:      train,
		Test:       test,
		Batch:      2,
		LR:         0.1,
		Iterations: 3,
		Seed:       1,
		Platform:   DefaultGPUPlatform(true),
	}
	flatCfg := cfg
	flatCfg.Workers = 16
	flat, err := SyncSGD(flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes, cfg.GPUsPerNode = 4, 4
	cfg.Overlap, cfg.BucketBytes = true, 256<<10
	if _, err := HierSyncSGD(cfg); err != nil { // warm-up: pool arenas, lazy set-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := HierSyncSGD(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss != flat.FinalLoss {
		t.Errorf("hier overlapped loss %v differs from the flat twin's %v", res.FinalLoss, flat.FinalLoss)
	}
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(res.Samples)
	t.Logf("%.1f KB allocated per sample (%d samples)", perSample, res.Samples)
	if perSample > 1200 {
		t.Errorf("one run allocated %.1f KB per sample, budget 1200", perSample)
	}
}
