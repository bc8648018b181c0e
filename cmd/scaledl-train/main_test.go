package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"scaledl/internal/core"
	"scaledl/internal/data"
	"scaledl/internal/nn"
	"scaledl/internal/parse"
)

// The fault-spec parsers must reject malformed input with an error instead
// of guessing: a float fail step used to be silently truncated to int, and
// a zero straggler factor silently disabled the fault.

// The -comm-mode flag is strict: exactly the lower-case mode names (or empty
// for the dense default) are accepted; anything else errors with the valid
// names instead of silently training in dense mode.
func TestCommModeFlagStrict(t *testing.T) {
	good := map[string]core.CommMode{
		"":       core.CommDense,
		"dense":  core.CommDense,
		"sfb":    core.CommSFB,
		"hybrid": core.CommHybrid,
	}
	for in, want := range good {
		got, err := core.ParseCommMode(in)
		if err != nil || got != want {
			t.Errorf("ParseCommMode(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"Dense", "SFB", "Hybrid", "densee", "factors", "x"} {
		_, err := core.ParseCommMode(in)
		var pe *parse.Error
		if !errors.As(err, &pe) {
			t.Errorf("ParseCommMode(%q): want *parse.Error, got %v", in, err)
		} else if pe.Value != in || !reflect.DeepEqual(pe.Allowed, core.CommModes()) {
			t.Errorf("ParseCommMode(%q) error %+v does not carry the input and the valid modes", in, pe)
		}
	}
}

// A knob the chosen method cannot honor surfaces from the registry as a
// typed *core.UnsupportedError naming the method and the knob — what main
// prints — never as a silently ignored flag.
func TestUnsupportedKnobIsTyped(t *testing.T) {
	train, _ := data.Synthetic(data.Config{
		Spec: data.Spec{Name: "toy", Channels: 1, Height: 12, Width: 12, Classes: 4}, TrainN: 64, TestN: 8, Seed: 1,
	})
	cfg := core.Config{
		Def: nn.TinyCNN(nn.Shape{C: 1, H: 12, W: 12}, 4), Train: train,
		Workers: 4, Batch: 4, LR: 0.05, Iterations: 2, Seed: 1, Platform: core.DefaultGPUPlatform(true),
		Faults: core.FaultPlan{LossRate: 0.05},
	}
	for _, method := range []string{"async-sgd", "original-easgd"} {
		_, err := core.Methods[method](cfg)
		var ue *core.UnsupportedError
		if !errors.As(err, &ue) {
			t.Fatalf("%s -loss: want *core.UnsupportedError, got %v", method, err)
		}
		if ue.Method != method || ue.Knob != "loss" || ue.Reason == "" {
			t.Errorf("%s -loss: refusal %+v", method, ue)
		}
	}
	if _, err := core.Methods["sync-sgd"](cfg); err != nil {
		t.Errorf("sync-sgd -loss: %v", err)
	}
}

// -verbose-comm prints one cost-model row per parameter layer plus the
// factor-layer summary.
func TestPrintCommSelector(t *testing.T) {
	sel := &core.HybridSelector{
		Mode:    core.CommHybrid,
		Workers: 4,
		Choices: []core.LayerCommChoice{
			{Seg: 0, Layer: 0, Kind: "Conv2D", Elems: 520, DenseBytes: 12480, DenseTime: 1e-5},
			{Seg: 1, Layer: 2, Kind: "Dense", Elems: 400500, B: 8, F: 500, D: 800,
				SFBOK: true, UseSFB: true, DenseBytes: 9612000, SFBBytes: 499200,
				DenseTime: 3e-4, SFBTime: 5e-5, ReconTime: 1e-5},
		},
	}
	var sb strings.Builder
	printCommSelector(&sb, sel)
	out := sb.String()
	for _, want := range []string{
		"hybrid mode, 4 workers",
		"dense (no factor form)",
		"Dense",
		"sfb",
		"1 of 2 parameter layers ship sufficient factors",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("selector output missing %q:\n%s", want, out)
		}
	}
}

func TestParseStraggler(t *testing.T) {
	good := []struct {
		in     string
		rank   int
		factor float64
	}{
		{"4", 1, 4}, // bare factor stragglers rank 1
		{"1:4", 1, 4},
		{"2:1.5", 2, 1.5},
		{"0:10", 0, 10},
	}
	for _, c := range good {
		rank, f, err := parseStraggler(c.in)
		if err != nil {
			t.Errorf("parseStraggler(%q): %v", c.in, err)
			continue
		}
		if rank != c.rank || f != c.factor {
			t.Errorf("parseStraggler(%q) = (%d, %v), want (%d, %v)", c.in, rank, f, c.rank, c.factor)
		}
	}
	for _, in := range []string{"", "x", "1:", "1:x", "-1:4", "1:0", "1:-4", "0", "1:2:3", "1.5:4"} {
		if _, _, err := parseStraggler(in); err == nil {
			t.Errorf("parseStraggler(%q) accepted", in)
		}
	}
}

func TestParseFailAt(t *testing.T) {
	good := []struct {
		in         string
		rank, step int
	}{
		{"50", 0, 50}, // bare step fails rank 0
		{"2:50", 2, 50},
		{"0:1", 0, 1},
	}
	for _, c := range good {
		rank, step, err := parseFailAt(c.in)
		if err != nil {
			t.Errorf("parseFailAt(%q): %v", c.in, err)
			continue
		}
		if rank != c.rank || step != c.step {
			t.Errorf("parseFailAt(%q) = (%d, %d), want (%d, %d)", c.in, rank, step, c.rank, c.step)
		}
	}
	// "2.5" and "2:50.0" were previously truncated by int(ParseFloat(...)).
	for _, in := range []string{"", "x", "2.5", "2:50.0", "2:", "2:x", "-1:50", "2:-5", "1:2:3"} {
		if _, _, err := parseFailAt(in); err == nil {
			t.Errorf("parseFailAt(%q) accepted", in)
		}
	}
}

func TestParseBadLinks(t *testing.T) {
	bls, err := parseBadLinks("1:0:0:0.3,2:3:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(bls) != 2 {
		t.Fatalf("got %d links, want 2", len(bls))
	}
	if bls[0].From != 1 || bls[0].To != 0 || bls[0].Loss != 0 || bls[0].Corrupt != 0.3 {
		t.Errorf("link 0 = %+v", bls[0])
	}
	if bls[1].From != 2 || bls[1].To != 3 || bls[1].Loss != 0.1 || bls[1].Corrupt != 0 {
		t.Errorf("link 1 = %+v", bls[1])
	}
	for _, in := range []string{"", "1:0", "1:0:x", "1:0:0.1:y", "a:0:0.1", "1:b:0.1", "-1:0:0.1", "1:0:0.1:0.2:0.3", "1:0:0.1,,"} {
		if _, err := parseBadLinks(in); err == nil {
			t.Errorf("parseBadLinks(%q) accepted", in)
		}
	}
}
