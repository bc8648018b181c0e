package scaledl

import (
	"fmt"
	"io"

	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/data"
	"scaledl/internal/harness"
	"scaledl/internal/hw"
	"scaledl/internal/knl"
	"scaledl/internal/nn"
	"scaledl/internal/parse"
	"scaledl/internal/quant"
	"scaledl/internal/tensor"
)

// Core distributed-training types, re-exported from the implementation.
type (
	// Config describes one distributed training run (workers, batch size,
	// learning rate, elastic force ρ, iteration budget, platform, …).
	Config = core.Config
	// Result is the outcome: simulated time, time breakdown, accuracy
	// trajectory.
	Result = core.Result
	// Platform is the simulated hardware (devices, links, message plan).
	Platform = core.Platform
	// Breakdown is exposed time per §6.1.1 category.
	Breakdown = core.Breakdown
	// Category indexes the breakdown (communication and computation parts).
	Category = core.Category
	// Point is one sample of a training trajectory.
	Point = core.Point
	// GradEvent is the per-layer gradient-ready notification the streaming
	// backward walk emits (nn.Net.LossAndGradStream) — the dependency
	// structure Config.Overlap's bucketed communication pipeline keys on.
	GradEvent = nn.GradEvent

	// FaultPlan opens the failure-scenario space around the paper's
	// fault-free runs (Config.Faults): timing-only knobs (stragglers,
	// heterogeneity, fail-stop with checkpoint recovery) that never touch
	// the math, and semantic knobs (message loss/corruption with guarded
	// retries, fail-stop without recovery, partial aggregation) that may
	// change it — deterministically under the fault seed.
	FaultPlan = core.FaultPlan
	// BadLink adds per-link loss/corruption on one directed worker link.
	BadLink = core.BadLink
	// DropRecord names the ranks whose gradient a partial-aggregation step
	// dropped (Result.Dropped).
	DropRecord = core.DropRecord

	// NetDef is a reusable network definition; Shape a CHW activation shape.
	NetDef = nn.NetDef
	// LayerSpec declares one layer of a NetDef.
	LayerSpec = nn.LayerSpec
	// Shape is a channels×height×width activation geometry.
	Shape = nn.Shape
	// ModelCost is the cost-table view of a model (params, FLOPs per layer).
	ModelCost = nn.ModelCost

	// Dataset is an in-memory labeled image set; Spec its geometry.
	Dataset = data.Dataset
	// Spec describes dataset geometry (channels, size, classes, counts).
	Spec = data.Spec

	// KNLConfig configures the §6.2 chip-partitioning runtime.
	KNLConfig = knl.Config
	// KNLResult is a partitioned-chip run outcome.
	KNLResult = knl.Result

	// Experiment is a regenerable paper artifact; Report its output.
	Experiment = harness.Experiment
	// Report is a formatted experiment result.
	Report = harness.Report
	// Options controls experiment execution (seed, scale).
	Options = harness.Options
)

// Breakdown categories (the §6.1.1 parts), re-exported so results can be
// inspected through the facade.
const (
	CatGPUGPUParam     = core.CatGPUGPUParam
	CatCPUGPUData      = core.CatCPUGPUData
	CatCPUGPUParam     = core.CatCPUGPUParam
	CatForwardBackward = core.CatForwardBackward
	CatGPUUpdate       = core.CatGPUUpdate
	CatCPUUpdate       = core.CatCPUUpdate
	CatRecovery        = core.CatRecovery
	CatRetry           = core.CatRetry
	CatDropped         = core.CatDropped
	CatSFBRecon        = core.CatSFBRecon
)

// FaultPlan.FailMode values: reload-and-replay recovery (timing-only, the
// default) or kill-for-good with the survivors finishing at P−1.
const (
	FailRecover  = core.FailRecover
	FailContinue = core.FailContinue
)

// DefaultBucketBytes is the streaming pipeline's default gradient-bucket
// size (Config.BucketBytes = 0 means this).
const DefaultBucketBytes = core.DefaultBucketBytes

// Train runs the named distributed algorithm. Method names follow the
// paper: "original-easgd*", "original-easgd", "async-sgd", "async-msgd",
// "hogwild-sgd", "sync-sgd", "async-easgd", "async-measgd",
// "hogwild-easgd", "sync-easgd1", "sync-easgd2", "sync-easgd3" — plus the
// hierarchical multi-node extensions "hier-sync-sgd" and "hier-sync-easgd",
// which train Config.Nodes × Config.GPUsPerNode workers on a composed
// per-node-PCIe-trees-under-fabric topology (Config.HierSchedule selects
// the inter-node collective schedule, Config.TauLocal/TauGlobal pace the
// node-group elastic averaging of hier-sync-easgd).
//
// Config.Overlap turns on the layer-streaming communication pipeline for
// the families that support it (SyncSGD's bucketed overlapped allreduce,
// async SGD-style streamed uploads, the round-robin master's per-bucket
// pulls, KNLClusterEASGD's streamed center broadcast); Config.BucketBytes
// sets the bucket coalescing size. Sync EASGD3 always overlaps — the
// paper's definition — through the same pipeline.
func Train(method string, cfg Config) (Result, error) {
	run, ok := core.Methods[method]
	if !ok {
		return Result{}, fmt.Errorf("scaledl: unknown method %q (one of %v)", method, core.MethodNames())
	}
	return run(cfg)
}

// Methods lists the available training methods in the paper's order.
func Methods() []string { return core.MethodNames() }

// DefaultGPUPlatform returns the paper's 4-GPU node model; packed selects
// the §5.2 single-buffer communication layout.
func DefaultGPUPlatform(packed bool) Platform { return core.DefaultGPUPlatform(packed) }

// Model zoo.

// LeNet is the classic Caffe LeNet (431,080 parameters) the paper trains on
// MNIST.
func LeNet(in Shape, classes int) NetDef { return nn.LeNet(in, classes) }

// TinyCNN is the scaled-down convnet used by the fast experiments.
func TinyCNN(in Shape, classes int) NetDef { return nn.TinyCNN(in, classes) }

// CIFARQuick is the Caffe cifar10_quick-style network.
func CIFARQuick(in Shape, classes int) NetDef { return nn.CIFARQuick(in, classes) }

// MiniGoogleNet is a small executable inception network (real parallel
// branches with channel concatenation), the runnable counterpart of the
// GoogleNetCost table.
func MiniGoogleNet(in Shape, classes int) NetDef { return nn.MiniGoogleNet(in, classes) }

// Inception builds one GoogleNet inception module spec (1×1, 1×1→3×3,
// 1×1→5×5 and pool→1×1 branches) for use inside a NetDef.
func Inception(c1, r3, c3, r5, c5, pp int) LayerSpec { return nn.Inception(c1, r3, c3, r5, c5, pp) }

// AlexNetCost, VGG19Cost and GoogleNetCost return the exact-dimension cost
// tables of the paper's ImageNet models.
func AlexNetCost() ModelCost   { return nn.AlexNetCost() }
func VGG19Cost() ModelCost     { return nn.VGG19Cost() }
func GoogleNetCost() ModelCost { return nn.GoogleNetCost() }

// Datasets. The paper's Table 1 geometries with synthetic, learnable,
// seeded content (the real downloads are unavailable offline).

// SyntheticMNIST returns normalized train/test sets with MNIST geometry
// (1×28×28, 10 classes).
func SyntheticMNIST(seed int64, trainN, testN int) (train, test *Dataset) {
	return syntheticPair(data.MNISTSpec, seed, trainN, testN, 1.5)
}

// SyntheticCIFAR returns normalized train/test sets with CIFAR geometry
// (3×32×32, 10 classes).
func SyntheticCIFAR(seed int64, trainN, testN int) (train, test *Dataset) {
	return syntheticPair(data.CIFARSpec, seed, trainN, testN, 1.2)
}

// Synthetic generates a dataset with arbitrary geometry and noise.
func Synthetic(spec Spec, seed int64, trainN, testN int, noise float64) (train, test *Dataset) {
	return syntheticPair(spec, seed, trainN, testN, noise)
}

func syntheticPair(spec Spec, seed int64, trainN, testN int, noise float64) (train, test *Dataset) {
	train, test = data.Synthetic(data.Config{
		Spec: spec, Seed: seed, TrainN: trainN, TestN: testN, Noise: noise,
	})
	train.Normalize()
	test.Normalize()
	return train, test
}

// KNL chip partitioning (§6.2).

// RunKNLPartition executes a partitioned-chip training run (Figure 12's
// engine).
func RunKNLPartition(cfg KNLConfig) (KNLResult, error) { return knl.Run(cfg) }

// NewKNL7250 returns the paper's KNL node model with the given workload
// efficiency.
func NewKNL7250(eff float64) hw.KNLChip { return hw.NewKNL7250(eff) }

// MaxKNLPartsFittingMCDRAM applies the paper's MCDRAM fit rule ("at most 16
// copies of weight and data" for AlexNet+CIFAR).
func MaxKNLPartsFittingMCDRAM(weightBytes, dataCopyBytes int64) int {
	return knl.MaxPartsFittingMCDRAM(hw.NewKNL7250(0.1), weightBytes, dataCopyBytes)
}

// Experiments: every table and figure of the paper's evaluation.

// Experiments lists the regenerable artifacts (table2, table3, table4,
// fig6.1-fig6.4, fig8, fig10-fig13, batch, ablation).
func Experiments() []Experiment { return harness.List() }

// RunExperiment executes one experiment by ID.
func RunExperiment(id string, o Options) (*Report, error) {
	e, err := harness.Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o)
}

// RunAllExperiments executes every experiment in ID order.
func RunAllExperiments(o Options) ([]*Report, error) { return harness.RunAll(o) }

// WeakScalingEfficiency returns the Table 4 model's efficiency for
// "googlenet" or "vgg19" at the given node count (68 cores per node).
func WeakScalingEfficiency(model string, nodes int) (float64, error) {
	return harness.WeakScalingEfficiency(model, nodes)
}

// Extensions beyond the paper's evaluation.

// ParseError is what every facade name parser returns for an unrecognized
// name: the flag-ish field being parsed, the offending value, and the full
// allowed set, rendered uniformly as
//
//	unknown <field> "<value>" (one of a, b, c)
//
// so scaledl-train and scaledl-serve print consistent flag errors.
// Retrieve it with errors.As to list the allowed values programmatically.
type ParseError = parse.Error

// UnsupportedError is what Train (and Config.Validate) return when a method
// is asked for a knob it cannot honor — semantic faults on a method whose
// parameter traffic bypasses the guarded message path, PartialK with
// Overlap, a factor CommMode with Compression, a hierarchical method on a
// flat config. It names the Method, the Knob (the column of the support
// matrix in the README) and the Reason; retrieve it with errors.As. The
// check runs before a run touches any process state, so a refused config
// leaves no trace.
type UnsupportedError = core.UnsupportedError

// CompressionScheme selects low-precision gradient transmission for
// Config.Compression (§3.4's future-work direction): quant.None,
// quant.OneBit (1-bit SGD with error feedback) or quant.Uniform8.
type CompressionScheme = quant.Scheme

// Compression schemes.
const (
	CompressNone   = quant.None
	CompressOneBit = quant.OneBit
	CompressUint8  = quant.Uniform8
)

// ParseCompressionScheme converts a scheme name ("none", "onebit",
// "uniform8"; empty means none) for Config.Compression.
func ParseCompressionScheme(name string) (CompressionScheme, error) {
	return quant.ParseScheme(name)
}

// CompressionSchemes lists the scheme names ParseCompressionScheme accepts.
func CompressionSchemes() []string { return quant.Schemes() }

// KernelTier reports the GEMM micro-kernel tier the process dispatched to at
// startup from the CPU's feature set: "avx512", "avx2", "sse2", "neon" or
// "generic". GODEBUG=cpu.<feature>=off downgrades it exactly like the Go
// runtime's own dispatch. Benchmarks record this so numbers from different
// tiers are never compared against each other.
func KernelTier() string { return tensor.KernelTier() }

// ComputePrecision selects the GEMM operand storage precision for
// Config.ComputePrec: "fp32" (default), "bf16" or "fp16". Packed operand
// panels are narrowed to the chosen format while accumulation stays fp32.
type ComputePrecision = tensor.Precision

// Compute precisions.
const (
	PrecFloat32  = tensor.Float32
	PrecBFloat16 = tensor.BFloat16
	PrecFloat16  = tensor.Float16
)

// ParseComputePrecision converts a precision name ("fp32", "bf16", "fp16";
// empty means fp32) for Config.ComputePrec.
func ParseComputePrecision(s string) (ComputePrecision, error) { return tensor.ParsePrecision(s) }

// ComputePrecisions lists the precision names ParseComputePrecision
// accepts.
func ComputePrecisions() []string { return tensor.Precisions() }

// ParseFailMode validates a FaultPlan.FailMode name ("recover",
// "continue"; empty means recover).
func ParseFailMode(name string) (string, error) { return core.ParseFailMode(name) }

// FailModes lists the names ParseFailMode accepts.
func FailModes() []string { return core.FailModes() }

// KNLClusterConfig configures Algorithm 4 run as a real rank program over
// the message-level collective engine (internal/comm).
type KNLClusterConfig = core.KNLClusterConfig

// TrainKNLCluster runs Algorithm 4 (Communication-Efficient EASGD on a
// KNL cluster) with real message-passing collectives between simulated
// rank processes.
func TrainKNLCluster(cfg KNLClusterConfig) (Result, error) {
	return core.KNLClusterEASGD(cfg)
}

// CommMode selects the gradient transport of the allreduce methods for
// Config.CommMode: dense (every layer allreduces its full gradient, the
// default), sfb (every dense layer ships B·(F+D) sufficient factors —
// Poseidon's sufficient-factor broadcasting — and receivers reconstruct
// Σₚ dYₚᵀ·Xₚ locally), or hybrid (the per-layer winner of the analytic
// α-β cost model). The transport changes where bytes move, never what is
// summed: reconstruction is bit-identical to the dense allreduce.
type CommMode = core.CommMode

// Gradient transports for Config.CommMode.
const (
	CommDense  = core.CommDense
	CommSFB    = core.CommSFB
	CommHybrid = core.CommHybrid
)

// ParseCommMode converts a transport name ("dense", "sfb", "hybrid"; empty
// means dense) for Config.CommMode.
func ParseCommMode(name string) (CommMode, error) { return core.ParseCommMode(name) }

// CommModes lists the transport names ParseCommMode accepts.
func CommModes() []string { return core.CommModes() }

// HybridSelector holds the per-layer transport verdicts of one run
// configuration; LayerCommChoice is one layer's cost-model row (dense vs
// factor wire bytes and analytic times, and the transport the run uses).
type (
	HybridSelector  = core.HybridSelector
	LayerCommChoice = core.LayerCommChoice
)

// SelectCommModes runs the hybrid communication selector for a
// configuration without training: per parameter layer, the analytic cost of
// the dense allreduce versus the sufficient-factor allgather plus
// reconstruction, and the transport Config.CommMode routes it to — the
// cost-model entry point behind scaledl-train's -verbose-comm and the
// "hybrid" experiment.
func SelectCommModes(cfg Config) (*HybridSelector, error) { return core.SelectCommModes(cfg) }

// CollectiveSchedule selects the message pattern of the simulated
// allreduce collectives for Config.Schedule: tree (default), ring,
// recursive halving/doubling, pipelined chain, or the linear baseline.
type CollectiveSchedule = comm.Schedule

// ParseCollectiveSchedule converts a schedule name ("tree", "ring", "rhd",
// "chain", "linear") for Config.Schedule.
func ParseCollectiveSchedule(name string) (CollectiveSchedule, error) {
	return comm.ParseSchedule(name)
}

// CollectiveSchedules lists the schedule names the engine implements.
func CollectiveSchedules() []string { return comm.Schedules() }

// SimulatedAllReduceTime executes one message-level allreduce of nBytes
// over parties nodes on a contention-free α-β link under the named
// schedule and returns the simulated seconds — the engine the training
// algorithms communicate through, exposed for cost exploration.
func SimulatedAllReduceTime(schedule string, nBytes int64, parties int, alpha, betaSecPerByte float64) (float64, error) {
	link := hw.Link{Name: "custom", Alpha: alpha, Beta: betaSecPerByte}
	return harness.SimulateAllReduce(schedule, link, nBytes, parties)
}

// AnalyticAllReduceTime returns the closed-form α-β prediction for the
// named schedule — the analytic oracle the engine is verified against on
// contention-free topologies. The pipelined chain has no closed form.
func AnalyticAllReduceTime(schedule string, nBytes int64, parties int, alpha, betaSecPerByte float64) (float64, error) {
	sched, err := comm.ParseSchedule(schedule)
	if err != nil {
		return 0, err
	}
	link := hw.Link{Name: "custom", Alpha: alpha, Beta: betaSecPerByte}
	t, ok := sched.AnalyticAllReduceTime(link, nBytes, parties)
	if !ok {
		return 0, fmt.Errorf("scaledl: no closed form for schedule %q", schedule)
	}
	return t, nil
}

// AnalyticHierAllReduceTime returns the composed two-level oracle of the
// hierarchical allreduce — intra-node reduce (intra schedule) + inter-node
// allreduce among one leader per node (inter schedule) + intra-node
// broadcast — on α-β links for the two levels. It is what the simulated
// comm.HierAllReduce completes at exactly on contention-free composed
// topologies. The pipelined chain has no closed form at either level.
func AnalyticHierAllReduceTime(intraSchedule, interSchedule string, nBytes int64, nodes, gpusPerNode int,
	intraAlpha, intraBeta, interAlpha, interBeta float64) (float64, error) {
	intra, err := comm.ParseSchedule(intraSchedule)
	if err != nil {
		return 0, err
	}
	inter, err := comm.ParseSchedule(interSchedule)
	if err != nil {
		return 0, err
	}
	t, ok := comm.HierAllReduceTime(
		hw.Link{Name: "intra", Alpha: intraAlpha, Beta: intraBeta},
		hw.Link{Name: "inter", Alpha: interAlpha, Beta: interBeta},
		nBytes, nodes, gpusPerNode, intra, inter)
	if !ok {
		return 0, fmt.Errorf("scaledl: no closed form for schedule pair %q/%q", intraSchedule, interSchedule)
	}
	return t, nil
}

// Model is the trained-network handle the facade hands out: an opaque wrap
// of the underlying net with snapshot (Save/LoadModel), batched inference
// (Predict/PredictInto) and int8 post-training quantization (QuantizeInt8).
// Train results expose one through Result.Model, so train → snapshot →
// serve composes without naming any internal type. Models are not
// concurrency-safe; the serving batcher (internal/serve, cmd/scaledl-serve)
// is the concurrent front end.
type Model = nn.Model

// BuildModel instantiates a model from an architecture definition with
// seeded parameter initialization (an untrained Model; Train is the usual
// source of trained ones).
func BuildModel(def NetDef, seed int64) *Model { return nn.NewModel(def.Build(seed)) }

// LoadModel restores a model saved with Model.Save (either the fp32 v1
// format or the int8 v2 format quantized models write).
func LoadModel(r io.Reader) (*Model, error) { return nn.LoadModel(r) }

// LRSchedule and the schedule types support the §7.2 retuning rules.
type (
	// LRSchedule maps iteration → learning rate.
	LRSchedule = nn.LRSchedule
	// Warmup ramps linearly to the base rate, then delegates.
	Warmup = nn.Warmup
	// StepDecay is Caffe's "step" policy.
	StepDecay = nn.StepDecay
	// PolyDecay is Caffe's "poly" policy.
	PolyDecay = nn.PolyDecay
)

// LinearScaledLR and SqrtScaledLR apply the batch-size scaling rules §7.2
// alludes to.
func LinearScaledLR(baseLR float32, refBatch, batch int) (float32, error) {
	return nn.LinearScaledLR(baseLR, refBatch, batch)
}

// SqrtScaledLR is the conservative square-root scaling rule.
func SqrtScaledLR(baseLR float32, refBatch, batch int) (float32, error) {
	return nn.SqrtScaledLR(baseLR, refBatch, batch)
}
