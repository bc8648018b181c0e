package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
	"scaledl/internal/parse"
)

// This file is the hybrid communication selector — Poseidon's observation
// threaded through the run configuration. A dense layer's gradient is the
// outer product dW = dYᵀ·X, so it can travel as sufficient factors
// (O(B·(F+D)) wire per party, comm.FactorAllGather) instead of the dense
// F·D+F allreduce payload; a conv layer's gradient has no such form and
// always rides the allreduce. Which transport wins per layer depends on the
// shape: fc layers (F, D in the thousands, B in the tens) favor factors,
// while small dense layers — and every layer once B·(F+D) outgrows F·D —
// favor the dense collective. Config.CommMode picks the policy: dense
// (everything allreduces, the default), sfb (every factorable layer ships
// factors), or hybrid (per-layer winner of the analytic α-β cost model
// below, the Poseidon paper's hybrid communication). The choice changes
// only where bytes move: the reconstructed gradients are bit-identical to
// the dense allreduce for every schedule, flat or hierarchical.

// CommMode selects the gradient transport of the data-parallel allreduce
// methods (sync-sgd, hier-sync-sgd); methods that do not allreduce
// gradients ignore it.
type CommMode int

const (
	// CommDense allreduces every layer's dense gradient (the default).
	CommDense CommMode = iota
	// CommSFB ships sufficient factors for every factorable (dense) layer
	// and allreduces the rest.
	CommSFB
	// CommHybrid picks per layer: factors where the analytic cost model
	// says they are cheaper, the dense allreduce elsewhere.
	CommHybrid
)

// commModeNames is indexed by CommMode.
var commModeNames = [...]string{"dense", "sfb", "hybrid"}

// String names the mode as ParseCommMode accepts it.
func (m CommMode) String() string {
	if m < 0 || int(m) >= len(commModeNames) {
		return fmt.Sprintf("CommMode(%d)", int(m))
	}
	return commModeNames[m]
}

// CommModes lists every mode name accepted by ParseCommMode.
func CommModes() []string { return append([]string(nil), commModeNames[:]...) }

// ParseCommMode converts a name ("dense", "sfb", "hybrid") to a CommMode;
// the empty string means dense.
func ParseCommMode(name string) (CommMode, error) {
	for m, n := range commModeNames {
		if name == n {
			return CommMode(m), nil
		}
	}
	if name == "" {
		return CommDense, nil
	}
	return 0, parse.Errorf("comm mode", name, CommModes())
}

// LayerCommChoice is the selector's verdict for one parameter layer: the
// analytic wire bytes and times of both transports and the transport the
// run will use. Seg indexes the communicator plan segment (parameter
// layers in order), Layer the nn layer.
type LayerCommChoice struct {
	Seg   int
	Layer int
	Kind  string // layer type name, for display
	Elems int    // dense gradient elements (F·D+F for a factorable layer)

	// Factor shape; zero for layers with no factor form.
	B, F, D int

	SFBOK  bool // the layer can ship factors at all
	UseSFB bool // the transport this run uses

	DenseBytes int64   // total allreduce wire, 2(P−1)·4·Elems
	SFBBytes   int64   // total factor-allgather wire, P(P−1)·4·B(F+D)
	DenseTime  float64 // analytic allreduce seconds on the parameter link
	SFBTime    float64 // analytic factor allgather + reconstruction seconds
	ReconTime  float64 // reconstruction compute share of SFBTime
}

// String renders the choice as one table row for verbose selector output.
func (c LayerCommChoice) String() string {
	if !c.SFBOK {
		return fmt.Sprintf("layer %2d %-12s %9d elems  dense (no factor form)  %8.3fms %8dB",
			c.Layer, c.Kind, c.Elems, c.DenseTime*1e3, c.DenseBytes)
	}
	mode := "dense"
	if c.UseSFB {
		mode = "sfb"
	}
	return fmt.Sprintf("layer %2d %-12s %9d elems  %-5s  dense %8.3fms %10dB | sfb %8.3fms %10dB (recon %6.3fms)",
		c.Layer, c.Kind, c.Elems, mode, c.DenseTime*1e3, c.DenseBytes, c.SFBTime*1e3, c.SFBBytes, c.ReconTime*1e3)
}

// HybridSelector holds the per-layer transport decisions of one run
// configuration, in plan-segment order.
type HybridSelector struct {
	Mode    CommMode
	Workers int
	Choices []LayerCommChoice
}

// NumSFB counts the layers routed to the factor transport.
func (hs *HybridSelector) NumSFB() int {
	n := 0
	for _, c := range hs.Choices {
		if c.UseSFB {
			n++
		}
	}
	return n
}

// Skip returns the per-plan-segment mask of SFB layers — the segments the
// bucketed allreduce stream must not carry (comm.NewBucketizerMasked).
func (hs *HybridSelector) Skip() []bool {
	skip := make([]bool, len(hs.Choices))
	for i, c := range hs.Choices {
		skip[i] = c.UseSFB
	}
	return skip
}

// SelectCommModes runs the hybrid selector for a configuration without
// running the training: per parameter layer, the analytic cost of the dense
// allreduce versus the factor allgather plus reconstruction, and the
// transport Config.CommMode routes it to. This is the cost-model entry
// point the CLI's verbose mode and the hybrid harness experiment print.
func SelectCommModes(cfg Config) (*HybridSelector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := cfg.Def.Build(0)
	return selectCommModes(cfg, net.Layers), nil
}

// selectCommModes is the engine behind SelectCommModes, for callers that
// already validated cfg and built the model. The α-β link of the cost model
// is the link the run's gradient collective actually rides: the host
// parameter link for flat runs, the fabric for hierarchical ones (where the
// inter-node hop dominates); the schedule is likewise the run's flat or
// inter-node schedule.
func selectCommModes(cfg Config, layers []nn.Layer) *HybridSelector {
	link := cfg.Platform.link("host", cfg.Platform.HostParam)
	sched := cfg.Schedule
	if cfg.Nodes > 0 {
		fabric := cfg.Platform.Fabric
		if fabric == nil {
			fabric = hw.MellanoxFDR
		}
		link = cfg.Platform.link("fabric", fabric)
		sched = cfg.HierSchedule
	}
	p := cfg.Workers
	hs := &HybridSelector{Mode: cfg.CommMode, Workers: p}
	for li, l := range layers {
		if l.ParamCount() == 0 {
			continue
		}
		c := LayerCommChoice{
			Seg:   len(hs.Choices),
			Layer: li,
			Kind:  fmt.Sprintf("%T", l),
			Elems: l.ParamCount(),
		}
		if len(c.Kind) > 4 && c.Kind[:4] == "*nn." {
			c.Kind = c.Kind[4:]
		}
		c.DenseBytes = comm.DenseAllReduceBytes(p, c.Elems)
		c.DenseTime = denseAllReduceTime(sched, link, int64(c.Elems)*4, p)
		if fl, ok := l.(nn.FactorLayer); ok {
			c.SFBOK = true
			c.F, c.D = fl.FactorShape()
			c.B = cfg.Batch
			entry := c.B * (c.F + c.D)
			c.SFBBytes = comm.FactorAllGatherBytes(p, entry)
			c.ReconTime = cfg.Platform.Worker.ComputeTime(
				comm.FactorReconFLOPsFor(p, c.B, c.F, c.D), factorReconBytes(p, c.B, c.F, c.D))
			c.SFBTime = comm.AnalyticFactorAllGatherTime(sched, link, int64(entry)*4, p) + c.ReconTime
			switch cfg.CommMode {
			case CommSFB:
				c.UseSFB = true
			case CommHybrid:
				c.UseSFB = c.SFBTime < c.DenseTime
			}
		}
		hs.Choices = append(hs.Choices, c)
	}
	return hs
}

// hybridSeg is one SFB-routed plan segment at run time: the nn layer whose
// factor views feed the collective and its packed element range.
type hybridSeg struct {
	layer  int // nn layer index
	lo, hi int // element range within the packed model vector
}

// elemRange is a contiguous [lo,hi) element run of non-SFB segments — one
// dense allreduce unit of the hybrid monolithic path.
type elemRange struct{ lo, hi int }

// hybridRun realizes the selector's decisions against one communicator
// plan: the SFB segments (ascending), the dense runs between them and the
// skip mask for the bucketizer.
type hybridRun struct {
	segs      []hybridSeg
	denseRuns []elemRange
	skip      []bool
	reconTime float64     // per-iteration reconstruction compute, all segs
	bySeg     map[int]int // plan segment -> ordinal in segs
}

// hybridRun builds the run-time hybrid layout — empty (no segs, nil skip)
// when every layer rides the dense allreduce (dense mode, or a selector that
// picked no SFB layer). The plan must be the per-layer parameter plan —
// guaranteed by Validate, which rejects CommMode≠dense with Compression
// (whose packed single-residual plan has no per-layer segments).
func (rc *runContext) hybridRun(plan comm.Plan) *hybridRun {
	sel := rc.commSel
	if sel == nil || sel.NumSFB() == 0 || len(plan.LayerBytes) != len(sel.Choices) {
		return &hybridRun{}
	}
	offs := make([]int, len(plan.LayerBytes)+1)
	for i, b := range plan.LayerBytes {
		offs[i+1] = offs[i] + int(b/4)
	}
	hy := &hybridRun{skip: sel.Skip(), bySeg: make(map[int]int)}
	runLo := -1
	for seg, c := range sel.Choices {
		if c.UseSFB {
			if runLo >= 0 {
				hy.denseRuns = append(hy.denseRuns, elemRange{offs[runLo], offs[seg]})
				runLo = -1
			}
			hy.bySeg[seg] = len(hy.segs)
			hy.segs = append(hy.segs, hybridSeg{layer: c.Layer, lo: offs[seg], hi: offs[seg+1]})
			hy.reconTime += c.ReconTime
			continue
		}
		if runLo < 0 {
			runLo = seg
		}
	}
	if runLo >= 0 {
		hy.denseRuns = append(hy.denseRuns, elemRange{offs[runLo], offs[len(sel.Choices)]})
	}
	return hy
}

// denseAllReduceTime is the schedule's closed-form allreduce prediction,
// falling back to the binomial tree for the pipelined chain (whose chunk
// overlap has no closed form — the selector only needs a ranking oracle).
func denseAllReduceTime(s comm.Schedule, l comm.Transferer, bytes int64, p int) float64 {
	if t, ok := s.AnalyticAllReduceTime(l, bytes, p); ok {
		return t
	}
	t, _ := comm.ScheduleTree.AnalyticAllReduceTime(l, bytes, p)
	return t
}

// factorReconBytes is the reconstruction's working-set touch: read each
// party's factor pair, write the scratch gradient and accumulate into dst.
func factorReconBytes(p, b, f, d int) int64 {
	return int64(p) * (int64(b)*(int64(f)+int64(d)) + 2*(int64(f)*int64(d)+int64(f))) * 4
}
