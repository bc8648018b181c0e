package scaledl

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestTrainViaFacade(t *testing.T) {
	train, test := SyntheticMNIST(1, 512, 128)
	cfg := Config{
		Def:        TinyCNN(Shape{C: 1, H: 28, W: 28}, 10),
		Train:      train,
		Test:       test,
		Workers:    4,
		Batch:      16,
		LR:         0.05,
		Iterations: 40,
		Seed:       1,
		Platform:   DefaultGPUPlatform(true),
		EvalEvery:  10,
	}
	res, err := Train("sync-easgd3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.5 {
		t.Errorf("accuracy %.3f too low", res.FinalAcc)
	}
	if res.SimTime <= 0 || len(res.Curve) == 0 {
		t.Errorf("result incomplete: %+v", res)
	}
}

func TestTrainOverlapViaFacade(t *testing.T) {
	train, test := SyntheticMNIST(1, 512, 128)
	mk := func(overlap bool) Config {
		return Config{
			Def:         TinyCNN(Shape{C: 1, H: 28, W: 28}, 10),
			Train:       train,
			Test:        test,
			Workers:     4,
			Batch:       16,
			LR:          0.05,
			Iterations:  30,
			Seed:        1,
			Platform:    DefaultGPUPlatform(true),
			Overlap:     overlap,
			BucketBytes: 8 << 10,
		}
	}
	off, err := Train("sync-sgd", mk(false))
	if err != nil {
		t.Fatal(err)
	}
	on, err := Train("sync-sgd", mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if on.FinalLoss != off.FinalLoss || on.FinalAcc != off.FinalAcc {
		t.Errorf("streaming changed training math: loss %v vs %v, acc %v vs %v",
			on.FinalLoss, off.FinalLoss, on.FinalAcc, off.FinalAcc)
	}
	if on.SimTime >= off.SimTime {
		t.Errorf("overlap did not reduce simulated time: %v vs %v", on.SimTime, off.SimTime)
	}
	if on.Breakdown.HiddenComm <= 0 {
		t.Error("no hidden communication reported through the facade")
	}
	if on.Breakdown.Times[CatForwardBackward] <= 0 {
		t.Error("category constants not usable through the facade")
	}
}

func TestTrainUnknownMethod(t *testing.T) {
	_, err := Train("sgd-9000", Config{})
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("got %v", err)
	}
}

// A knob the method cannot honor comes back through the facade as a typed
// *UnsupportedError naming the method and the support-matrix column.
func TestTrainUnsupportedKnob(t *testing.T) {
	train, _ := SyntheticMNIST(1, 64, 8)
	cfg := Config{
		Def: TinyCNN(Shape{C: 1, H: 28, W: 28}, 10), Train: train,
		Workers: 4, Batch: 4, LR: 0.05, Iterations: 2, Seed: 1, Platform: DefaultGPUPlatform(true),
		Overlap: true, Faults: FaultPlan{PartialK: 2},
	}
	_, err := Train("sync-sgd", cfg)
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnsupportedError, got %v", err)
	}
	if ue.Method != "sync-sgd" || ue.Knob != "partial-k+overlap" || ue.Reason == "" {
		t.Errorf("refusal %+v", ue)
	}
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 14 {
		t.Fatalf("want 14 methods, got %d", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		seen[m] = true
	}
	for _, want := range []string{"original-easgd", "hogwild-easgd", "sync-easgd3", "async-measgd", "hier-sync-sgd", "hier-sync-easgd"} {
		if !seen[want] {
			t.Errorf("missing method %q", want)
		}
	}
}

func TestModelZooFacade(t *testing.T) {
	if n := LeNet(Shape{C: 1, H: 28, W: 28}, 10).Build(1).ParamCount(); n != 431080 {
		t.Errorf("LeNet params %d", n)
	}
	if p := VGG19Cost().TotalParams(); p < 143_000_000 {
		t.Errorf("VGG19 params %d", p)
	}
	if p := GoogleNetCost().TotalParams(); p > 8_000_000 {
		t.Errorf("GoogleNet params %d", p)
	}
	if p := AlexNetCost().TotalParams(); p < 60_000_000 {
		t.Errorf("AlexNet params %d", p)
	}
}

func TestSyntheticDatasets(t *testing.T) {
	train, test := SyntheticCIFAR(2, 256, 64)
	if train.Spec.SampleDim() != 3*32*32 || test.Len() != 64 {
		t.Errorf("CIFAR geometry wrong: %+v", train.Spec)
	}
	spec := Spec{Name: "custom", Channels: 2, Height: 8, Width: 8, Classes: 3}
	tr, te := Synthetic(spec, 3, 100, 20, 0.5)
	if tr.Len() != 100 || te.Len() != 20 {
		t.Errorf("custom synthetic sizes wrong")
	}
}

func TestKNLFacade(t *testing.T) {
	if got := MaxKNLPartsFittingMCDRAM(249<<20, 687<<20); got != 16 {
		t.Errorf("MCDRAM fit = %d, paper says 16", got)
	}
	train, test := SyntheticCIFAR(1, 256, 64)
	res, err := RunKNLPartition(KNLConfig{
		Chip:   NewKNL7250(0.1),
		Parts:  4,
		Def:    TinyCNN(Shape{C: 3, H: 32, W: 32}, 10),
		Train:  train,
		Test:   test,
		Batch:  8,
		LR:     0.05,
		Rounds: 10,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 || res.Rounds != 10 {
		t.Errorf("KNL run incomplete: %+v", res)
	}
}

func TestExtensionsFacade(t *testing.T) {
	// Save/Load round trip through the facade.
	model := BuildModel(TinyCNN(Shape{C: 1, H: 8, W: 8}, 3), 5)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ParamCount() != model.ParamCount() {
		t.Error("loaded model differs")
	}

	// Compression through the facade.
	train, test := SyntheticMNIST(1, 256, 64)
	cfg := Config{
		Def: TinyCNN(Shape{C: 1, H: 28, W: 28}, 10), Train: train, Test: test,
		Workers: 2, Batch: 8, LR: 0.05, Iterations: 10, Seed: 1,
		Platform: DefaultGPUPlatform(true), Compression: CompressOneBit,
	}
	if _, err := Train("sync-sgd", cfg); err != nil {
		t.Fatal(err)
	}

	// Algorithm 4 rank program through the facade.
	cfg.Compression = CompressNone
	if _, err := TrainKNLCluster(KNLClusterConfig{Config: cfg}); err != nil {
		t.Fatal(err)
	}

	// LR schedules.
	w := Warmup{Base: 0.4, Div: 10, WarmupIters: 10}
	if w.At(10) != 0.4 {
		t.Error("warmup facade broken")
	}
	if lr, err := LinearScaledLR(0.1, 32, 64); err != nil || lr != 0.2 {
		t.Errorf("linear scaling: %v, %v", lr, err)
	}
	if lr, err := SqrtScaledLR(0.1, 64, 64); err != nil || lr != 0.1 {
		t.Errorf("sqrt scaling: %v, %v", lr, err)
	}
}

// The Model facade writes the internal net's snapshot format unchanged: the
// bytes are identical, so snapshots written before the facade existed keep
// loading.
func TestModelFacade(t *testing.T) {
	def := TinyCNN(Shape{C: 1, H: 8, W: 8}, 3)
	var old bytes.Buffer
	if err := def.Build(5).Save(&old); err != nil {
		t.Fatal(err)
	}
	m := BuildModel(def, 5)
	var snap bytes.Buffer
	if err := m.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old.Bytes(), snap.Bytes()) {
		t.Errorf("Model.Save bytes differ from nn.Net.Save (%d vs %d bytes)", snap.Len(), old.Len())
	}

	reloaded, err := LoadModel(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, reloaded.InputDim())
	for i := range in {
		in[i] = float32(i%7) / 7
	}
	want, err := m.Predict(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reloaded.Predict(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reloaded logit %d: %v != %v", i, got[i], want[i])
		}
	}

	// Int8 quantization through the facade survives its own round trip.
	if n := reloaded.QuantizeInt8(); n == 0 {
		t.Error("QuantizeInt8 touched no layers")
	}
	var q bytes.Buffer
	if err := reloaded.Save(&q); err != nil {
		t.Fatal(err)
	}
	if q.Len() >= snap.Len() {
		t.Errorf("int8 snapshot not smaller: %d vs %d bytes", q.Len(), snap.Len())
	}
	qm, err := LoadModel(&q)
	if err != nil {
		t.Fatal(err)
	}
	if !qm.Quantized() {
		t.Error("reloaded int8 snapshot not quantized")
	}
}

// Every strict parser the facade exposes fails through the one ParseError
// type, so callers branch on it uniformly.
func TestParseErrorUnified(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"comm mode", func() error { _, err := ParseCommMode("bogus"); return err }()},
		{"collective schedule", func() error { _, err := ParseCollectiveSchedule("bogus"); return err }()},
		{"compression scheme", func() error { _, err := ParseCompressionScheme("bogus"); return err }()},
		{"compute precision", func() error { _, err := ParseComputePrecision("bogus"); return err }()},
		{"fail mode", func() error { _, err := ParseFailMode("bogus"); return err }()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted %q", c.name, "bogus")
			continue
		}
		var pe *ParseError
		if !errors.As(c.err, &pe) {
			t.Errorf("%s: %T is not a ParseError", c.name, c.err)
			continue
		}
		if !strings.Contains(c.err.Error(), `"bogus"`) || !strings.Contains(c.err.Error(), "one of") {
			t.Errorf("%s: error %q lacks the unified format", c.name, c.err)
		}
	}
}

func TestHierFacade(t *testing.T) {
	// Composed two-level oracle: tree/tree = intra reduce + inter allreduce
	// + intra broadcast, assembled from the flat oracles.
	intraA, intraB := 6e-6, 1.0/12e9
	interA, interB := 0.7e-6, 0.2e-9
	got, err := AnalyticHierAllReduceTime("tree", "tree", 1<<20, 4, 8, intraA, intraB, interA, interB)
	if err != nil {
		t.Fatal(err)
	}
	intra := 2 * 3 * (intraA + (1<<20)*intraB) // reduce + bcast, log2(8) rounds each
	inter := 2 * 2 * (interA + (1<<20)*interB) // tree allreduce over 4 leaders
	if diff := got - (intra + inter); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("composed oracle %v, want %v", got, intra+inter)
	}
	if _, err := AnalyticHierAllReduceTime("chain", "tree", 1<<20, 4, 8, intraA, intraB, interA, interB); err == nil {
		t.Error("chain intra should have no closed form")
	}
	if _, err := AnalyticHierAllReduceTime("warp", "tree", 1, 1, 1, 0, 0, 0, 0); err == nil {
		t.Error("unknown schedule accepted")
	}

	// Hierarchical training through the facade: bit-identical to flat.
	train, test := SyntheticMNIST(1, 256, 64)
	cfg := Config{
		Def: TinyCNN(Shape{C: 1, H: 28, W: 28}, 10), Train: train, Test: test,
		Batch: 8, LR: 0.05, Iterations: 8, Seed: 1,
		Platform: DefaultGPUPlatform(true),
	}
	flatCfg := cfg
	flatCfg.Workers = 4
	flat, err := Train("sync-sgd", flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes, cfg.GPUsPerNode = 2, 2
	hier, err := Train("hier-sync-sgd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hier.FinalLoss != flat.FinalLoss {
		t.Errorf("hier-sync-sgd loss %v differs from flat %v", hier.FinalLoss, flat.FinalLoss)
	}
	cfg.TauLocal, cfg.TauGlobal = 2, 4
	if _, err := Train("hier-sync-easgd", cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(Experiments()) != 23 {
		t.Errorf("want 23 experiments, got %d", len(Experiments()))
	}
	rep, err := RunExperiment("table2", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Error("table2 empty")
	}
	if _, err := RunExperiment("nope", Options{}); err == nil {
		t.Error("unknown experiment did not error")
	}
	eff, err := WeakScalingEfficiency("vgg19", 32)
	if err != nil || eff <= 0 || eff >= 1 {
		t.Errorf("vgg19 efficiency %v, %v", eff, err)
	}
}
