// Package core implements the paper's contribution: the EASGD algorithm
// family redesigned for HPC systems (Async EASGD, Async MEASGD, Hogwild
// EASGD, Sync EASGD1/2/3) together with the baselines they are measured
// against (Original round-robin EASGD, Async SGD, Async MSGD, Hogwild SGD,
// Sync SGD). Every algorithm runs as a set of processes inside the
// deterministic simulator of internal/sim: gradient mathematics is executed
// for real (so accuracy curves are genuine) while time is charged by the
// hardware models of internal/hw (so the time axis reflects the paper's
// platforms rather than this machine).
//
// The coordinated methods share one rank program (step.go): one simulated
// process per rank and one step frame — membership, fault stall, data copy,
// compute, exchange, update, rank-0 bookkeeping, iteration barrier, byte
// attribution, stop check — with three seams a method fills as a row of
// function values:
//
//	method             compute            exchange                              update
//	sync-easgd1/2/3    whole gradient     elasticCenter (Bcast W̄ + Reduce ΣW)   Eq. (1) + Eq. (2)
//	knl-cluster-easgd  whole gradient     elasticCenter over the fabric         Eq. (1) + Eq. (2)
//	sync-sgd           whole | streamed   gradExchange (dense/ranges/factors/K) averaged SGD
//	hier-sync-sgd      whole | streamed   gradExchange, hierarchical endpoint   averaged SGD
//	hier-sync-easgd    whole gradient     elasticCenter per node; leaders'      local SGD; elastic pull +
//	                                      fabric allreduce                      group and global Eq. (2)
//
// The paper's baselines — the six parameter-server methods (async.go) and the
// two Original EASGD schedules (roundrobin.go) — share the second frame, the
// served master/worker program (step.go): a master loop with FIFO or
// per-arrival handler dispatch and stop sentinels, an unbounded worker loop,
// the same compute seams, and a push/pull seam:
//
//	method                 arrival              worker step               master service
//	async-sgd, async-msgd  FIFO, locked         compute → push ∆W → pull  (M)SGD step, reply W̄
//	hogwild-sgd            FIFO, handler each   as async-sgd              as async-sgd, concurrently
//	async-easgd, -measgd   FIFO, locked         push W → compute → pull,  Eq. (2), reply W̄
//	                                            then Eq. (1) or (5)-(6)
//	hogwild-easgd          FIFO, handler each   as async-easgd            Eq. (2) on a stale center
//	original-easgd*        rank order           await W̄ → compute →       data copy, send W̄, then
//	                                            post W → Eq. (1)          pull W_j + Eq. (2) at once
//	original-easgd         rank order           as original-easgd*        … pull W_j + Eq. (2) G turns later
//
// Which method honors which knob is the one table in support.go, consulted
// before a run touches any process state; every refusal is an
// *UnsupportedError.
//
// Beyond the paper's fault-free runs, Config.Faults (FaultPlan) and
// Platform.LinkScale open the failure-scenario space in two tiers. The
// timing-only knobs — per-worker compute heterogeneity, straggler
// injection, degraded links on named segments, fail-stop with
// checkpoint/recovery — stretch delays or insert stalls and never touch
// gradient math, so a faulty run's losses, accuracies and curves are
// bit-identical to its clean twin's for the deterministic schedules
// (pinned by faults_test.go) and only the simulated clock and the
// breakdown (CatRecovery) move. The semantic knobs — LossRate,
// CorruptRate, BadLinks, FailMode "continue", PartialK — change *what
// happens*: messages vanish or arrive garbled and are retried (CatRetry),
// a dead worker's gradient leaves the sum, a late gradient is dropped at
// the partial-aggregation deadline (CatDropped, Result.Dropped). A
// semantic-fault run may legitimately diverge from its clean twin, but the
// divergence is a pure function of the fault seed: two runs with the same
// configuration and FaultSeed are bit-identical (see faults.go).
//
// Config.CommMode (hybrid.go) reroutes the allreduce methods' gradient
// transport per layer: dense layers may ship B·(F+D) sufficient factors
// (Poseidon's SFB, comm.FactorAllGather) instead of the F·D+F dense
// payload, with each receiver reconstructing the summed gradient locally
// (charged as CatSFBRecon). The "hybrid" mode picks per layer from an
// analytic α-β cost model (SelectCommModes); whichever transport a layer
// rides, the reconstructed sum is bit-identical to the dense allreduce,
// monolithic or overlapped, flat or hierarchical.
package core

import (
	"fmt"

	"scaledl/internal/nn"
)

// Category is one of the time-consuming parts of §6.1.1 of the paper
// (parts 1-2, data I/O and initialization, are ignored there and here).
type Category int

const (
	// CatGPUGPUParam is GPU↔GPU parameter communication (part 3).
	CatGPUGPUParam Category = iota
	// CatCPUGPUData is CPU→GPU minibatch copying (part 4).
	CatCPUGPUData
	// CatCPUGPUParam is CPU↔GPU parameter communication (part 5).
	CatCPUGPUParam
	// CatForwardBackward is forward and backward propagation (part 6).
	CatForwardBackward
	// CatGPUUpdate is the worker-side weight update (part 7).
	CatGPUUpdate
	// CatCPUUpdate is the master-side center-weight update (part 8).
	CatCPUUpdate
	// CatRecovery is fault-handling time: checkpoint writes and the
	// reload-plus-replay stall after a fail-stop (FaultPlan). Not a Table 3
	// column — the paper's runs are fault-free — but charged through the
	// same exposed accounting so faulty runs still sum to wall time. It is
	// the root's own stalls; a *remote* process's stall reaches the root as
	// a wait and lands in the category that wait is charged to (Breakdown).
	CatRecovery
	// CatRetry is the coordinating rank's time lost to semantic message
	// faults as a sender: wasted wire time of lost or corrupted attempts
	// plus the ack-timeout backoff before each resend (FaultPlan.LossRate,
	// CorruptRate, BadLinks). Remote ranks' retry stalls reach the
	// coordinator as collective wait, like every remote stall.
	CatRetry
	// CatDropped is the partial-aggregation coordinator's deadline time:
	// what rank 0 spent waiting for gradients that never arrived in the
	// window and were dropped from the step (FaultPlan.PartialK); the
	// dropped ranks themselves are recorded in Result.Dropped.
	CatDropped
	// CatSFBRecon is the receiver-side reconstruction compute of
	// sufficient-factor broadcasting (Config.CommMode sfb/hybrid): turning
	// the gathered (dY, X) factor pairs back into the dense gradient
	// Σₚ dYₚᵀ·Xₚ on the worker device. It is the compute SFB trades wire
	// for, charged through the same exposed accounting so SFB runs still
	// sum to wall time; its Bytes column stays zero (reconstruction moves
	// no wire bytes — the factor traffic lands in the parameter category).
	CatSFBRecon

	numCategories
)

var categoryNames = [numCategories]string{"gpu-gpu para", "cpu-gpu data", "cpu-gpu para", "for/backward",
	"gpu update", "cpu update", "recovery", "retry", "dropped", "sfb recon"}

// String returns the Table 3 column name for the category.
func (c Category) String() string {
	if c < 0 || c >= numCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Categories lists all breakdown categories in Table 3 column order.
func Categories() []Category {
	cs := make([]Category, numCategories)
	for i := range cs {
		cs[i] = Category(i)
	}
	return cs
}

// Breakdown is one process's clock, split by category: every simulated second
// between the start of the run and its end is charged to exactly one of
// Times, so the parts sum to Result.SimTime for all fifteen methods just as
// the paper's Table 3 percentages sum to 100% (TestSupportTable and
// TestGoldenSimulatedClock hold every method and every golden row to 1e-9).
//
// Whose clock: each method's row names its root. For the coordinated methods
// and the six parameter-server methods it is rank 0; for the two round-robin
// schedules it is the master, which drives every transfer. Only the root
// charges (step.charge is root-gated). What another process spends reaches
// the root as a wait, and lands in the category that wait is charged to: a
// remote rank's straggling as collective or barrier wait (parameter
// communication), the parameter server's queue, update and reply as rank 0's
// round-trip wait (cpu-gpu para), a round-robin worker's compute — and its
// fault stall — as the master's wait for its completion (for/backward).
//
// Drain: the root can finish before the run does — a pipelined schedule's
// tail hops, the other workers' last round trips, the stop sentinels. The
// step frame charges the root's iteration-barrier wait, the served frame the
// master's sentinels and the tail between the root's last instant and the
// end of the run, all to the row's parameter-communication category.
//
// Exposed versus hidden: only communication the root actually waited for is
// in Times; what ran beneath its compute is HiddenComm, outside the sum.
// Bytes counts the wire traffic of each category — *all* bytes moved,
// including transfers hidden under compute overlap, so compressed-gradient
// runs show their full traffic reduction even where the time is already
// hidden.
type Breakdown struct {
	Times [numCategories]float64
	Bytes [numCategories]int64
	// HiddenComm is communication time that ran concurrently with (and was
	// hidden under) computation or other work on the root's clock — the
	// streaming pipeline's overlapped bucket collectives and uploads, Sync
	// EASGD3's broadcast waves, the parameter-server service an EASGD-style
	// worker overlaps with its next gradient. It is a diagnostic alongside
	// the exposed accounting, NOT part of Total().
	HiddenComm float64
}

// Add charges d seconds to category c.
func (b *Breakdown) Add(c Category, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("core: negative time %v for %v", d, c))
	}
	b.Times[c] += d
}

// AddHidden records d seconds of communication hidden under computation.
// Negative values clamp to zero (a collective fully covered by its exposed
// share hides nothing).
func (b *Breakdown) AddHidden(d float64) {
	if d > 0 {
		b.HiddenComm += d
	}
}

// AddBytes records n wire bytes against category c.
func (b *Breakdown) AddBytes(c Category, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("core: negative bytes %d for %v", n, c))
	}
	b.Bytes[c] += n
}

// ParamTraffic returns the wire bytes of the two parameter-communication
// categories — the quantity gradient compression shrinks.
func (b Breakdown) ParamTraffic() int64 {
	return b.Bytes[CatGPUGPUParam] + b.Bytes[CatCPUGPUParam]
}

// Total returns the sum over categories.
func (b Breakdown) Total() float64 {
	var s float64
	for _, t := range b.Times {
		s += t
	}
	return s
}

// Share returns category c's fraction of the total (0 when empty).
func (b Breakdown) Share(c Category) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.Times[c] / t
}

// CommRatio is the paper's "comm ratio": the share of time spent in the
// three communication categories (parts 3-5).
func (b Breakdown) CommRatio() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return (b.Times[CatGPUGPUParam] + b.Times[CatCPUGPUData] + b.Times[CatCPUGPUParam]) / t
}

// Point is one sample of a training trajectory.
type Point struct {
	Iter    int     // master iterations (or rounds) completed
	SimTime float64 // simulated seconds
	Loss    float64 // training loss at the probe
	TestAcc float64 // center-weight accuracy on the test set
}

// Result is the outcome of one simulated distributed training run.
type Result struct {
	Method     string
	Workers    int
	Iterations int
	SimTime    float64 // simulated wall-clock seconds
	Breakdown  Breakdown
	FinalAcc   float64
	FinalLoss  float64
	Curve      []Point
	Samples    int64 // total training samples consumed
	// MasterUpdates counts center-weight updates performed (global-center
	// syncs for the hierarchical EASGD, master iterations elsewhere).
	MasterUpdates int64
	// Dropped records, per step that dropped anything, which ranks'
	// gradients missed the partial-aggregation deadline and were excluded
	// from that step's sum (FaultPlan.PartialK). Deterministic: the same
	// configuration and fault seed drop the same ranks at the same steps.
	Dropped []DropRecord

	// net is the trained network at the final center weights, behind the
	// Model accessor so Train → serve composes through the facade without
	// exposing internals.
	net *nn.Net
}

// Model returns the trained model (the network at the final center
// weights) — the handle the serving path loads, saves and predicts with.
// Nil for zero-value Results.
func (r Result) Model() *nn.Model {
	if r.net == nil {
		return nil
	}
	return nn.NewModel(r.net)
}

// DropRecord names the ranks whose gradients were dropped at one step.
type DropRecord struct {
	Step  int   // 1-based step whose aggregation excluded them
	Ranks []int // ascending rank ids
}

// Updates returns the master-side update count.
func (r Result) Updates() int64 { return r.MasterUpdates }

// ErrorRate returns 1 − FinalAcc, the quantity Figure 8 plots (log10).
func (r Result) ErrorRate() float64 { return 1 - r.FinalAcc }
