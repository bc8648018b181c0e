package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"scaledl/internal/quant"
	"scaledl/internal/tensor"
)

// supportMethods is the table's row order: the registry, then the KNL
// cluster (which has its own entry point, not a registry Runner).
func supportMethods() []string { return append(MethodNames(), "knl-cluster-easgd") }

func runMethod(method string, cfg Config) (Result, error) {
	if method == "knl-cluster-easgd" {
		return KNLClusterEASGD(KNLClusterConfig{Config: cfg})
	}
	return Methods[method](cfg)
}

// knobConfigs turns each table column on, minimally, on a 4-worker config.
var knobConfigs = [numKnobs]func(c *Config){
	knobLoss:         func(c *Config) { c.Faults.LossRate = 0.05 },
	knobBadLinks:     func(c *Config) { c.Faults.BadLinks = []BadLink{{From: 1, To: 0, Loss: 0.1}} },
	knobFailContinue: func(c *Config) { c.Faults.FailMode, c.Faults.FailRank, c.Faults.FailAtStep = FailContinue, 1, 2 },
	knobPartialK:     func(c *Config) { c.Faults.PartialK = 2 },
	knobPartialKOverlap: func(c *Config) {
		c.Faults.PartialK, c.Overlap = 2, true
	},
	knobCommCompression: func(c *Config) { c.CommMode, c.Compression = CommSFB, quant.OneBit },
	knobCommPartialK:    func(c *Config) { c.CommMode, c.Faults.PartialK = CommHybrid, 2 },
	knobCommFailContinue: func(c *Config) {
		c.CommMode = CommSFB
		c.Faults.FailMode, c.Faults.FailRank, c.Faults.FailAtStep = FailContinue, 1, 2
	},
	knobFlatCluster: func(c *Config) { c.Nodes, c.GPUsPerNode = 0, 0 },
}

// TestSupportTable drives every cell of the method × knob table: a supported
// cell runs to completion with its invariants (a finite loss; a breakdown
// that sums to the simulated wall time — both frames, all fifteen rows), a
// refused cell returns an *UnsupportedError naming exactly that method and
// knob — and leaves the process-wide GEMM precision alone, which a refusal
// issued after the run context was built used to leak (SyncSGD with
// PartialK + Overlap and ComputePrec "bf16" left every later run in bf16).
// Not skipped under -short: the race-widths CI legs run it on every tier.
func TestSupportTable(t *testing.T) {
	before := tensor.ComputePrecision()
	base := testConfig(t, 3, true)
	base.Test = nil
	base.ComputePrec = "bf16"
	for _, method := range supportMethods() {
		row, has := supportTable[method]
		if !has {
			t.Errorf("%s: no support-table row", method)
			continue
		}
		hier := row[knobFlatCluster] != yes
		for k := 0; k < numKnobs; k++ {
			cfg := base
			if hier {
				cfg.Nodes, cfg.GPUsPerNode = 2, 2
			}
			knobConfigs[k](&cfg)
			if !knobs[k].set(&cfg) {
				t.Fatalf("knob config %q does not set its knob", knobs[k].name)
			}
			res, err := runMethod(method, cfg)
			if got := tensor.ComputePrecision(); got != before {
				t.Fatalf("%s × %s leaked compute precision %v (was %v)", method, knobs[k].name, got, before)
			}
			if row[k] != yes {
				var ue *UnsupportedError
				if !errors.As(err, &ue) {
					t.Errorf("%s × %s: want *UnsupportedError, got %v", method, knobs[k].name, err)
				} else if ue.Method != method || ue.Knob != knobs[k].name || ue.Reason != row[k] {
					t.Errorf("%s × %s: refusal names %q × %q (%s)", method, knobs[k].name, ue.Method, ue.Knob, ue.Reason)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s × %s: supported cell failed: %v", method, knobs[k].name, err)
				continue
			}
			if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
				t.Errorf("%s × %s: loss %v", method, knobs[k].name, res.FinalLoss)
			}
			if sum := res.Breakdown.Total(); math.Abs(sum-res.SimTime) > 1e-9*res.SimTime {
				t.Errorf("%s × %s: breakdown sums to %v, wall %v", method, knobs[k].name, sum, res.SimTime)
			}
		}
	}
}

// The anyMethod row — what Config.Validate refuses on its own — must be
// exactly the columns every method refuses, with the same reason.
func TestValidateRefusesWhatNoMethodSupports(t *testing.T) {
	for k := 0; k < numKnobs; k++ {
		common, all := supportTable[supportMethods()[0]][k], true
		for _, m := range supportMethods() {
			if supportTable[m][k] != common {
				all = false
			}
		}
		if !all {
			common = yes
		}
		if got := supportTable[anyMethod][k]; got != common {
			t.Errorf("column %s: Validate row %q, methods agree on %q", knobs[k].name, got, common)
		}
	}
	cfg := testConfig(t, 2, true)
	cfg.CommMode, cfg.Compression = CommSFB, quant.OneBit
	var ue *UnsupportedError
	if err := cfg.Validate(); !errors.As(err, &ue) || ue.Knob != "comm-mode+compression" {
		t.Errorf("Validate: want comm-mode+compression refusal, got %v", err)
	}
}

// supportMatrix renders the table as the README's markdown matrix.
func supportMatrix() string {
	var b strings.Builder
	b.WriteString("| method |")
	sep := "|---|"
	for _, kn := range knobs {
		fmt.Fprintf(&b, " `%s` |", kn.name)
		sep += ":-:|"
	}
	b.WriteString("\n" + sep + "\n")
	for _, m := range supportMethods() {
		fmt.Fprintf(&b, "| `%s` |", m)
		for _, cell := range supportTable[m] {
			if cell == yes {
				b.WriteString(" ✓ |")
			} else {
				b.WriteString(" — |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestREADMESupportMatrix fails when the README's method × knob matrix
// (between the support markers) drifts from the table it is generated from.
func TestREADMESupportMatrix(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- support:begin -->\n", "<!-- support:end -->"
	s := string(readme)
	i, j := strings.Index(s, begin), strings.Index(s, end)
	if i < 0 || j < i {
		t.Fatal("README.md has no support:begin/end markers")
	}
	if got, want := s[i+len(begin):j], supportMatrix(); got != want {
		t.Errorf("README support matrix is stale; replace the block between the markers with:\n%s", want)
	}
}
