package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/data"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
	"scaledl/internal/tensor"
)

// Platform is the simulated hardware a run executes on: the per-worker
// device, the master device, and the links parameters and data travel over.
// It also fixes the message plan (packed single-buffer versus per-layer),
// the knob of §5.2.
type Platform struct {
	// Worker is the per-worker accelerator (one GPU, or one KNL node).
	Worker hw.Device
	// Master is the device the center weight lives on in CPU-mastered
	// algorithms.
	Master hw.Device
	// HostParam carries CPU↔GPU parameter traffic.
	HostParam comm.Transferer
	// PeerParam carries GPU↔GPU parameter traffic (the PCIe-switch P2P path
	// Sync EASGD2/3 switch to).
	PeerParam comm.Transferer
	// Data carries CPU→GPU minibatch copies.
	Data comm.Transferer
	// Packed selects the §5.2 single-message layout for parameter traffic.
	Packed bool
	// GatherBW, if nonzero, is the staging bandwidth penalty per-layer
	// (unpacked) plans pay for noncontiguous memory access.
	GatherBW float64
	// SwitchConcurrency bounds how many parameter transfers the PCIe
	// switch carries at once; 0 (the default) is unconstrained, matching
	// the analytic model's assumption that a collective round's pair
	// transfers never queue. Setting it below Workers/2 makes switch
	// contention emerge in the simulated collectives.
	SwitchConcurrency int
	// Fabric joins nodes in hierarchical (Nodes × GPUsPerNode) runs: every
	// cross-node transfer rides it instead of the intra-node links. nil
	// defaults to Mellanox FDR InfiniBand (Table 2's fastest fabric).
	Fabric comm.Transferer
	// NICConcurrency bounds how many fabric transfers one node carries at
	// once (its network port; 2 models one full-duplex port). 0 is
	// unconstrained — the flat model's assumption that a collective's
	// concurrent per-GPU fabric streams never queue, which is exactly the
	// assumption the hierarchical collectives exist to drop.
	NICConcurrency int
	// LinkScale degrades named platform segments for failure scenarios:
	// every transfer on a listed segment takes factor times as long
	// (comm.ScaleLink). Keys: "host" (HostParam), "peer" (PeerParam),
	// "data" (the minibatch copy link) and "fabric" (the inter-node link).
	// Absent keys and factor 1 leave a segment untouched; factors must be
	// positive. Like every FaultPlan knob this is timing-only — the
	// training mathematics is bit-identical to the undegraded run.
	LinkScale map[string]float64
}

// linkScaleSegments are the segment names LinkScale accepts.
var linkScaleSegments = map[string]bool{"host": true, "peer": true, "data": true, "fabric": true}

// link applies any LinkScale degradation for segment name to l.
func (p Platform) link(name string, l comm.Transferer) comm.Transferer {
	f, ok := p.LinkScale[name]
	if !ok || f == 1 || l == nil {
		return l
	}
	return comm.ScaleLink(l, f)
}

// topology builds the simulated message fabric for a run: the paper's
// PCIe tree with the host as the extra node. hostStaged routes GPU↔GPU
// exchanges through host staging (the transfer mode of Sync EASGD1 and
// the data-parallel allreduce, whose parameter traffic rides HostParam);
// otherwise they use peer DMA through the switch (Sync EASGD2/3).
func (p Platform) topology(env *sim.Env, workers int, hostStaged bool) *comm.Topology {
	return comm.NewPCIeTree(env, comm.PCIeConfig{
		GPUs:              workers,
		Host:              p.link("host", p.HostParam),
		Peer:              p.link("peer", p.PeerParam),
		HostStaged:        hostStaged,
		SwitchConcurrency: p.SwitchConcurrency,
	})
}

// hierTopology composes the two-level cluster of the hierarchical
// algorithms: one PCIe tree per node (the single-node topology above,
// unchanged) under the platform's fabric, with the per-node NIC bound.
func (p Platform) hierTopology(env *sim.Env, nodes, gpusPerNode int, hostStaged bool) *comm.MultiLevel {
	fabric := p.Fabric
	if fabric == nil {
		fabric = hw.MellanoxFDR
	}
	return comm.NewMultiLevel(env, comm.MultiLevelConfig{
		Nodes: nodes,
		PerNode: func(env *sim.Env, node int) *comm.Topology {
			return p.topology(env, gpusPerNode, hostStaged)
		},
		Fabric:         p.link("fabric", fabric),
		NICConcurrency: p.NICConcurrency,
	})
}

// DefaultGPUPlatform models the paper's 4-GPU experiment node (Tesla M40s
// behind a 96-lane PCIe switch): pageable per-layer host transfers for the
// legacy algorithms, pinned packed transfers plus peer-to-peer DMA for the
// redesigned ones. Packed toggles which parameter path the run uses.
func DefaultGPUPlatform(packed bool) Platform {
	p := Platform{
		Worker:    hw.TeslaM40,
		Master:    hw.XeonE5,
		PeerParam: hw.GPUPeer,
		Data:      hw.PCIePinned,
		Packed:    packed,
		GatherBW:  6e9,
		// Multi-node runs join these nodes over FDR InfiniBand through one
		// full-duplex port per node (the paper's 16-node GPU cluster).
		Fabric:         hw.MellanoxFDR,
		NICConcurrency: 2,
	}
	if packed {
		p.HostParam = hw.PCIePinned
	} else {
		p.HostParam = hw.PCIeUnpinned
	}
	// Tiny benchmark kernels run far below device peak; 4% of peak matches
	// LeNet-scale per-iteration times on the paper's hardware.
	p.Worker.Eff = 0.04
	return p
}

// Config describes one distributed training run.
type Config struct {
	// Def is the network definition every worker instantiates (data
	// parallelism, Figure 4.1 of the paper).
	Def nn.NetDef
	// Train and Test are the datasets. Workers sample Train with
	// replacement, as in Algorithms 1-4 line "randomly pick b samples".
	Train *data.Dataset
	Test  *data.Dataset
	// Workers is P, the number of worker devices.
	Workers int
	// Batch is b, the per-worker minibatch size.
	Batch int
	// LR is η.
	LR float32
	// Momentum is µ (used by the momentum variants; rule of thumb 0.9).
	Momentum float32
	// Rho is ρ, the elastic force connecting local and center weights; the
	// moving rate η·ρ follows the EASGD paper's 0.9/P guidance by default.
	Rho float32
	// Iterations is the run budget: master interactions for the round-robin
	// and asynchronous algorithms, synchronous rounds for the Sync family.
	Iterations int
	// Seed makes the whole run reproducible.
	Seed int64
	// Platform is the simulated hardware.
	Platform Platform
	// EvalEvery records a curve point every this many iterations (0 means
	// final-only). Evaluation is an observer: it consumes no simulated time,
	// matching the paper's reporting of training time separately from
	// testing.
	EvalEvery int
	// EvalBatch is the evaluation batch size (default 256).
	EvalBatch int
	// TargetAcc, when positive, stops the run at the first accuracy probe
	// reaching it (probes happen every EvalEvery iterations). The paper's
	// comparisons are at equal accuracy, so experiments set a target and
	// compare the stopping times.
	TargetAcc float64
	// Compression selects low-precision parameter transmission — the
	// extension the paper defers to future work in §3.4. SyncSGD
	// quantizes gradients per worker (1-bit SGD with error feedback);
	// the asynchronous and round-robin algorithms, whose payloads are
	// whole weights, delta-encode each directed stream (quant.DeltaCodec).
	// Quantization error enters the real training mathematics; per-message
	// wire sizes shrink accordingly in the simulated transfers.
	Compression quant.Scheme
	// ComputePrec selects the storage precision of the packed GEMM operand
	// panels for the run's real training mathematics: "fp32" (default),
	// "bf16" or "fp16" (tensor.ParsePrecision). Accumulation always stays
	// fp32 — only the packed copies of the operands are narrowed — so this
	// is the reduced-precision single-node compute lever the paper's KNL
	// discussion motivates, composable with every method and with
	// Compression (which narrows the wire instead). The setting is applied
	// for the duration of the run and restored afterwards.
	ComputePrec string
	// Schedule selects the collective message pattern for the allreduce
	// algorithms (SyncSGD, KNLClusterEASGD): tree (default), ring, rhd,
	// chain or linear — see comm.ParseSchedule. The Sync EASGD family
	// always uses the paper's binomial tree.
	Schedule comm.Schedule
	// CommMode selects the gradient transport of the allreduce methods
	// (sync-sgd, hier-sync-sgd): dense (every layer's gradient allreduces,
	// the default), sfb (factorable — dense — layers broadcast sufficient
	// factors, comm.FactorAllGather, and receivers reconstruct), or hybrid
	// (per-layer winner of the analytic cost model, SelectCommModes).
	// Reconstruction replays each party's exact gradient computation and
	// combines in rank order, so the trained mathematics is bit-identical
	// to dense mode for every schedule — only the wire bytes and the time
	// breakdown (CatSFBRecon) move. Composes with Overlap/BucketBytes: SFB
	// layers leave the bucket stream (their factors ride their own forked
	// collectives) while the remaining layers bucket as usual. Cannot be
	// combined with Compression, partial aggregation or fail-continue faults.
	// Methods that do not allreduce gradients ignore it.
	CommMode CommMode
	// Overlap enables the layer-streaming communication pipeline: the
	// backward pass emits per-layer gradient-ready events (nn.GradEvent),
	// ready layers coalesce into ~BucketBytes buckets (comm.Bucketizer),
	// and each bucket's communication launches the moment its last layer
	// lands — so wire time hides under the tail of backprop instead of
	// serializing after it. SyncSGD runs per-bucket overlapped allreduces
	// under Schedule; Async SGD-style workers and the round-robin master
	// stream per-bucket parameter-server transfers; KNLClusterEASGD streams
	// its center broadcast beneath compute. Gradient mathematics is
	// bit-identical with Overlap on or off — streaming changes when bytes
	// move, never what is summed. Sync EASGD3 always overlaps (that is its
	// definition) and honors BucketBytes regardless of this flag.
	Overlap bool
	// BucketBytes is the gradient-bucket coalescing size of the streaming
	// pipeline (default 1 MiB when 0). Buckets respect layer boundaries:
	// sizes below the smallest layer degrade to one bucket per layer, sizes
	// above the model total to the monolithic single bucket.
	BucketBytes int64
	// Nodes and GPUsPerNode select the hierarchical two-level cluster of
	// the hier methods (hier-sync-sgd, hier-sync-easgd): Nodes machines of
	// GPUsPerNode workers each, composed as per-node PCIe trees under the
	// platform's Fabric. Workers is then Nodes×GPUsPerNode (Validate fills
	// it in when zero and rejects a mismatch). Both zero means flat — every
	// other method ignores these.
	Nodes       int
	GPUsPerNode int
	// HierSchedule selects the inter-node (fabric) collective schedule of
	// the hierarchical methods; Schedule keeps selecting the intra-node
	// one. Recursive halving/doubling among leaders is the strong default
	// regime on saturating fabrics (see the hier harness experiment).
	HierSchedule comm.Schedule
	// TauLocal and TauGlobal pace hier-sync-easgd's node-group elastic
	// averaging: workers run local SGD steps, every TauLocal-th step each
	// node group syncs with its group center over the intra-node links, and
	// every TauGlobal-th step the group centers sync with the replicated
	// global center over the fabric. Defaults: TauLocal 1, TauGlobal
	// 4·TauLocal. TauGlobal must be ≥ TauLocal; hier-sync-sgd ignores both.
	TauLocal  int
	TauGlobal int
	// Faults injects failure scenarios — heterogeneous worker speeds,
	// stragglers, fail-stop with checkpoint/restart — into the run's timing
	// (see FaultPlan). The zero value is the fault-free run of the paper.
	// Link degradation is configured on Platform.LinkScale; both are
	// timing-only and leave the training mathematics bit-identical.
	Faults FaultPlan
}

// DefaultBucketBytes is the streaming pipeline's bucket coalescing default:
// 1 MiB, small enough that several buckets fit in a paper-scale model (so
// communication starts well before backprop ends), large enough to amortize
// the per-collective latency α.
const DefaultBucketBytes = 1 << 20

// Validate checks the configuration and applies documented defaults. It
// refuses what no method supports; what one particular method refuses is the
// support table's business (support.go), consulted when a run names it.
func (c *Config) Validate() error { return c.validateFor(anyMethod) }

// validateFor is Validate for a run of method: field checks and defaults,
// then — the one place the table is consulted — the method × knob support
// table. Nothing here touches process state.
func (c *Config) validateFor(method string) error {
	if c.Train == nil || c.Train.Len() == 0 {
		return fmt.Errorf("core: config needs a non-empty training set")
	}
	if c.Nodes != 0 || c.GPUsPerNode != 0 {
		if c.Nodes < 1 || c.GPUsPerNode < 1 {
			return fmt.Errorf("core: hierarchical config needs both Nodes and GPUsPerNode >= 1, got %d x %d", c.Nodes, c.GPUsPerNode)
		}
		if c.Workers == 0 {
			c.Workers = c.Nodes * c.GPUsPerNode
		} else if c.Workers != c.Nodes*c.GPUsPerNode {
			return fmt.Errorf("core: workers %d does not match nodes x gpus-per-node %d x %d", c.Workers, c.Nodes, c.GPUsPerNode)
		}
	}
	if c.TauLocal == 0 {
		c.TauLocal = 1
	}
	if c.TauGlobal == 0 {
		c.TauGlobal = 4 * c.TauLocal
	}
	if c.TauLocal < 1 || c.TauGlobal < c.TauLocal {
		return fmt.Errorf("core: need TauGlobal >= TauLocal >= 1, got %d / %d", c.TauLocal, c.TauGlobal)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: workers must be >= 1, got %d", c.Workers)
	}
	if c.Batch < 1 {
		return fmt.Errorf("core: batch must be >= 1, got %d", c.Batch)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: iterations must be >= 1, got %d", c.Iterations)
	}
	if c.LR <= 0 {
		return fmt.Errorf("core: learning rate must be positive, got %v", c.LR)
	}
	if c.Rho == 0 {
		// EASGD guidance: moving rate η·ρ ≈ 0.9/P.
		c.Rho = 0.9 / (float32(c.Workers) * c.LR)
	}
	if c.EvalBatch == 0 {
		c.EvalBatch = 256
	}
	if c.BucketBytes == 0 {
		c.BucketBytes = DefaultBucketBytes
	}
	if c.BucketBytes < 0 {
		return fmt.Errorf("core: bucket bytes must be positive, got %d", c.BucketBytes)
	}
	if c.Def.In.Dim() != c.Train.Spec.SampleDim() {
		return fmt.Errorf("core: net input %v does not match dataset dim %d", c.Def.In, c.Train.Spec.SampleDim())
	}
	if err := c.Faults.validate(c.Workers); err != nil {
		return err
	}
	if c.CommMode < 0 || int(c.CommMode) >= len(commModeNames) {
		return fmt.Errorf("core: unknown comm mode %d (one of %v)", int(c.CommMode), CommModes())
	}
	if _, err := tensor.ParsePrecision(c.ComputePrec); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	for name, f := range c.Platform.LinkScale {
		if !linkScaleSegments[name] {
			return fmt.Errorf("core: unknown link-scale segment %q (want host, peer, data or fabric)", name)
		}
		if f <= 0 {
			return fmt.Errorf("core: link-scale factor for %q must be positive, got %v", name, f)
		}
	}
	return supported(method, c)
}

// plan builds the parameter message plan for a model's per-layer sizes.
func (p Platform) plan(layerParamCounts []int) comm.Plan {
	bytes := make([]int64, len(layerParamCounts))
	for i, c := range layerParamCounts {
		bytes[i] = int64(c) * 4
	}
	return comm.Plan{LayerBytes: bytes, Packed: p.Packed, GatherBW: p.GatherBW}
}

// Runner is a distributed training algorithm.
type Runner func(Config) (Result, error)

// Methods maps the paper's method names to their implementations. The
// first five rows are the existing methods the paper compares against; the
// rest are its contributions (Figure 9's taxonomy).
var Methods = map[string]Runner{
	"original-easgd*": OriginalEASGDSerial,
	"original-easgd":  OriginalEASGD,
	"async-sgd":       AsyncSGD,
	"async-msgd":      AsyncMSGD,
	"hogwild-sgd":     HogwildSGD,
	"sync-sgd":        SyncSGD,
	"async-easgd":     AsyncEASGD,
	"async-measgd":    AsyncMEASGD,
	"hogwild-easgd":   HogwildEASGD,
	"sync-easgd1":     SyncEASGD1,
	"sync-easgd2":     SyncEASGD2,
	"sync-easgd3":     SyncEASGD3,
	"hier-sync-sgd":   HierSyncSGD,
	"hier-sync-easgd": HierSyncEASGD,
}

// MethodNames lists the registry in the paper's presentation order, with
// the hierarchical multi-node extensions last.
func MethodNames() []string {
	return []string{
		"original-easgd*", "original-easgd",
		"async-sgd", "async-msgd", "hogwild-sgd", "sync-sgd",
		"async-easgd", "async-measgd", "hogwild-easgd",
		"sync-easgd1", "sync-easgd2", "sync-easgd3",
		"hier-sync-sgd", "hier-sync-easgd",
	}
}
