package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/parse"
)

// FaultPlan opens the failure-scenario space around the paper's fault-free
// runs in two tiers.
//
// The timing-only knobs — heterogeneous worker speeds, transient
// stragglers, degraded links (Platform.LinkScale) and one fail-stop crash
// with checkpoint/restart recovery — scale simulated delays or insert
// stalls and never touch the gradient mathematics, so such a run produces
// bit-identical losses, accuracies and curves to its fault-free twin and
// differs exactly in where the simulated time goes.
//
// The semantic knobs — LossRate, CorruptRate, BadLinks, FailMode
// "continue", PartialK — change what happens: a message can vanish on the
// wire or arrive garbled (detected by ack timeout or checksum and resent
// by comm's guarded delivery), a failed worker's gradient permanently
// leaves the sum, and a partial-aggregation deadline can drop a late
// gradient from a step. The mathematics may then legitimately diverge from
// the clean twin — but deterministically: every fault outcome is a pure
// function of (FaultSeed, link endpoints, message id, attempt), never of
// event order, so two runs with the same configuration and seed are
// bit-identical in losses, drops and timing. The guarded delivery path is
// only entered when a semantic knob is set; otherwise every message takes
// the exact fault-free fast path.
//
// Semantic faults are supported by the collective-driven families —
// sync-sgd and hier-sync-sgd (everything), the Sync EASGD versions and
// hier-sync-easgd (loss/corruption only) — and refused with an
// *UnsupportedError by the methods whose parameter traffic bypasses the
// guarded message path (the asynchronous family, round-robin, the KNL
// cluster); support.go holds the method × knob table.
//
// Steps are counted per worker and 1-based: a worker's first iteration is
// step 1. For synchronous families a step is a global round; for the
// asynchronous and round-robin families it is that worker's own iteration
// count, so the same plan stays meaningful across all of them.
type FaultPlan struct {
	// Heterogeneity makes the fleet non-uniform: worker i's compute time is
	// scaled by Heterogeneity[i mod len]. Empty means homogeneous (all 1).
	// Factors must be positive; {1, 1.15} models every other device running
	// 15% slow — the silent thermal throttling of large clusters.
	Heterogeneity []float64

	// StragglerFactor > 0 multiplies the compute time of the ranks in
	// StragglerRanks during steps [StragglerFrom, StragglerUntil). Steps are
	// 1-based; StragglerFrom 0 means from the start and StragglerUntil 0
	// means to the end. A factor of exactly 1 is the degenerate no-op the
	// fault tests pin. Zero disables the straggler entirely.
	StragglerFactor float64
	StragglerRanks  []int
	StragglerFrom   int
	StragglerUntil  int

	// FailAtStep > 0 injects one fail-stop: worker FailRank crashes at the
	// start of that step and recovers by reloading the last checkpoint over
	// the data link and replaying every step since — data copy, compute and
	// local update per replayed step. With CheckpointEvery 0 there is no
	// checkpoint and the replay reaches back to step 1 (restart from
	// scratch). The recovered state is by construction identical to the
	// pre-crash state, so only time is lost — the stall surfaces on the
	// failed rank and, through collectives and barriers, as waiting on every
	// rank synchronized with it.
	FailRank   int
	FailAtStep int

	// CheckpointEvery > 0 makes every worker write a checkpoint (one model
	// copy over the data link) after each CheckpointEvery-th step — the
	// steady cost that buys a shorter replay after a crash.
	CheckpointEvery int

	// FailMode selects what a fail-stop means. Empty or FailRecover is the
	// timing-only behavior above: the rank reloads the latest checkpoint and
	// replays, the math is untouched. FailContinue is the semantic variant:
	// the rank dies at the start of step FailAtStep with no checkpoint and
	// no recovery, the survivors shrink the collective membership around it
	// (comm's survivor-aware schedules) and finish the run with P−1
	// contributions per step. It requires FailAtStep > 0, at least two
	// workers, and FailRank != 0 (rank 0 coordinates), and is supported by
	// sync-sgd and hier-sync-sgd.
	FailMode string

	// LossRate and CorruptRate are the topology-wide per-attempt
	// probabilities that a message vanishes on the wire or arrives garbled.
	// Either > 0 activates comm's guarded delivery on the run's topology:
	// checksummed payloads, per-message acks, timeout/exponential-backoff
	// retries (every attempt's bytes charged to the wire, so retry traffic
	// inflates Breakdown.Bytes), with the coordinator's own retry time
	// surfaced as CatRetry.
	LossRate    float64
	CorruptRate float64

	// BadLinks adds extra loss/corruption on specific directed worker→worker
	// links on top of the global rates — the "one bad cable" scenario. Flat
	// topologies only (worker ranks are topology nodes there).
	BadLinks []BadLink

	// FaultSeed seeds the deterministic fault plan; 0 uses Config.Seed.
	FaultSeed int64

	// MaxSendAttempts bounds per-message delivery attempts (0 = comm's
	// default of 8); exhausting them panics — an undeliverable message is a
	// configuration error, not a scenario.
	MaxSendAttempts int

	// PartialK > 0 switches sync-sgd to partial aggregation: rank 0 gathers
	// gradients and proceeds once K of the live ranks' contributions (its
	// own included) have arrived and the deadline has passed for the rest.
	// Ranks whose step-t gradient misses the window contribute zero to that
	// step (the averaged step keeps the live-worker divisor); every dropped
	// (step, rank) pair is recorded in Result.Dropped and the coordinator's
	// deadline wait in CatDropped. Cannot be combined with Config.Overlap.
	PartialK int

	// PartialDeadline scales the partial-aggregation window: rank 0 waits
	// PartialDeadline × (one gradient message's wire time into rank 0) past
	// the quorum before dropping stragglers. 0 means 3.
	PartialDeadline float64
}

// FailMode values.
const (
	// FailRecover reloads the latest checkpoint and replays (timing-only,
	// the default).
	FailRecover = "recover"
	// FailContinue kills the rank for good; survivors shrink the
	// collective membership and finish without it.
	FailContinue = "continue"
)

// FailModes lists every mode name accepted by ParseFailMode.
func FailModes() []string { return []string{FailRecover, FailContinue} }

// ParseFailMode validates a fail-mode name ("recover", "continue"); the
// empty string means recover. It is the strict-parser twin of
// ParseCommMode for the -fail-mode style flags.
func ParseFailMode(name string) (string, error) {
	switch name {
	case "":
		return FailRecover, nil
	case FailRecover, FailContinue:
		return name, nil
	default:
		return "", parse.Errorf("fail mode", name, FailModes())
	}
}

// BadLink adds per-link loss/corruption on the directed link From→To
// (worker ranks), on top of FaultPlan.LossRate/CorruptRate.
type BadLink struct {
	From, To      int
	Loss, Corrupt float64
}

// enabled reports whether any timing fault knob is active (the gate on the
// per-step fault hooks).
func (f *FaultPlan) enabled() bool {
	return len(f.Heterogeneity) > 0 || f.StragglerFactor != 0 ||
		f.FailAtStep > 0 || f.CheckpointEvery > 0
}

// semantic reports whether any knob that injects message-level faults is
// set — the condition under which a run's topology gets comm.Chaos
// installed.
func (f *FaultPlan) semantic() bool {
	return f.LossRate > 0 || f.CorruptRate > 0 || len(f.BadLinks) > 0
}

// failContinue reports whether the plan kills a rank for good.
func (f *FaultPlan) failContinue() bool {
	return f.FailMode == FailContinue && f.FailAtStep > 0
}

// validate checks the plan against the run's worker count.
func (f *FaultPlan) validate(workers int) error {
	for i, h := range f.Heterogeneity {
		if h <= 0 {
			return fmt.Errorf("core: heterogeneity factor %d must be positive, got %v", i, h)
		}
	}
	if f.StragglerFactor < 0 {
		return fmt.Errorf("core: straggler factor must be >= 0, got %v", f.StragglerFactor)
	}
	for _, r := range f.StragglerRanks {
		if r < 0 || r >= workers {
			return fmt.Errorf("core: straggler rank %d outside 0..%d", r, workers-1)
		}
	}
	if f.StragglerFrom < 0 || f.StragglerUntil < 0 {
		return fmt.Errorf("core: straggler step window must be non-negative, got [%d, %d)", f.StragglerFrom, f.StragglerUntil)
	}
	if f.FailAtStep < 0 {
		return fmt.Errorf("core: fail-at step must be >= 0, got %d", f.FailAtStep)
	}
	// The rank bound holds whenever FailRank is set, not only when a fail
	// step arms it: a plan naming a rank the run does not have is a mistake
	// worth rejecting even while dormant.
	if f.FailRank < 0 || f.FailRank >= workers {
		return fmt.Errorf("core: fail rank %d outside 0..%d", f.FailRank, workers-1)
	}
	if f.CheckpointEvery < 0 {
		return fmt.Errorf("core: checkpoint interval must be >= 0, got %d", f.CheckpointEvery)
	}
	switch f.FailMode {
	case "", FailRecover:
	case FailContinue:
		if f.FailAtStep <= 0 {
			return fmt.Errorf("core: fail mode %q needs FailAtStep > 0", f.FailMode)
		}
		if workers < 2 {
			return fmt.Errorf("core: fail mode %q needs at least 2 workers", f.FailMode)
		}
		if f.FailRank == 0 {
			return fmt.Errorf("core: fail mode %q cannot kill rank 0 (the coordinator)", f.FailMode)
		}
	default:
		return parse.Errorf("fail mode", f.FailMode, FailModes())
	}
	if f.LossRate < 0 || f.LossRate >= 1 {
		return fmt.Errorf("core: loss rate must be in [0, 1), got %v", f.LossRate)
	}
	if f.CorruptRate < 0 || f.CorruptRate >= 1 {
		return fmt.Errorf("core: corrupt rate must be in [0, 1), got %v", f.CorruptRate)
	}
	if f.LossRate+f.CorruptRate >= 1 {
		return fmt.Errorf("core: loss + corrupt rates must leave delivery possible, got %v", f.LossRate+f.CorruptRate)
	}
	for i, bl := range f.BadLinks {
		if bl.From < 0 || bl.From >= workers || bl.To < 0 || bl.To >= workers || bl.From == bl.To {
			return fmt.Errorf("core: bad link %d: %d->%d is not a worker pair of 0..%d", i, bl.From, bl.To, workers-1)
		}
		if bl.Loss < 0 || bl.Corrupt < 0 {
			return fmt.Errorf("core: bad link %d: negative rate", i)
		}
		if f.LossRate+bl.Loss+f.CorruptRate+bl.Corrupt >= 1 {
			return fmt.Errorf("core: bad link %d: combined rates must leave delivery possible", i)
		}
	}
	if f.MaxSendAttempts < 0 {
		return fmt.Errorf("core: max send attempts must be >= 0, got %d", f.MaxSendAttempts)
	}
	if f.PartialK < 0 || f.PartialK > workers {
		return fmt.Errorf("core: partial-aggregation K %d outside 1..%d", f.PartialK, workers)
	}
	if f.PartialDeadline < 0 {
		return fmt.Errorf("core: partial deadline must be >= 0, got %v", f.PartialDeadline)
	}
	return nil
}

// chaos converts the plan's semantic knobs into the comm-layer
// configuration (nil when no semantic knob is set); seed is the run seed
// used when FaultSeed is 0.
func (f *FaultPlan) chaos(seed int64) *comm.Chaos {
	if !f.semantic() {
		return nil
	}
	s := f.FaultSeed
	if s == 0 {
		s = seed
	}
	return &comm.Chaos{
		Seed:        s,
		Loss:        f.LossRate,
		Corrupt:     f.CorruptRate,
		MaxAttempts: f.MaxSendAttempts,
	}
}

// installChaos arms topo with the plan's semantic faults: the seeded
// loss/corruption plan plus the per-link BadLinks wrappers. BadLinks name
// worker ranks, which are the topology's node ids on the flat topologies —
// the only ones the support table admits them on. No-op when no semantic
// knob is set.
func (rc *runContext) installChaos(topo *comm.Topology) {
	f := &rc.cfg.Faults
	ch := f.chaos(rc.cfg.Seed)
	if ch == nil {
		return
	}
	topo.SetChaos(ch)
	for _, bl := range f.BadLinks {
		topo.WrapLossy(bl.From, bl.To, bl.Loss, bl.Corrupt)
	}
}

// hetScale returns worker id's steady speed factor from the heterogeneity
// profile.
func (rc *runContext) hetScale(id int) float64 {
	h := rc.cfg.Faults.Heterogeneity
	if len(h) == 0 {
		return 1
	}
	return h[id%len(h)]
}

// computeScale returns the factor on worker id's compute time at its step s
// (1-based): the steady heterogeneity factor times the straggler factor when
// id straggles during s.
func (rc *runContext) computeScale(id, s int) float64 {
	scale := rc.hetScale(id)
	f := &rc.cfg.Faults
	if f.StragglerFactor > 0 {
		from := f.StragglerFrom
		if from < 1 {
			from = 1
		}
		if s >= from && (f.StragglerUntil <= 0 || s < f.StragglerUntil) {
			for _, r := range f.StragglerRanks {
				if r == id {
					scale *= f.StragglerFactor
					break
				}
			}
		}
	}
	return scale
}

// computeDelay is worker id's modeled forward+backward time at step s with
// all fault scaling applied.
func (rc *runContext) computeDelay(id, s int) float64 {
	return rc.workers[id].computeTime * rc.computeScale(id, s)
}

// faultStall returns the stall worker id pays at the start of step s:
// the reload-plus-replay of a fail-stop at this step, plus the checkpoint
// write committed at the end of the previous step (charged here so a step's
// stall is a single delay at its start).
func (rc *runContext) faultStall(id, s int) float64 {
	f := &rc.cfg.Faults
	var d float64
	if f.CheckpointEvery > 0 && s > 1 && (s-1)%f.CheckpointEvery == 0 {
		d += rc.ckptTime
	}
	if f.FailAtStep > 0 && !f.failContinue() && s == f.FailAtStep && id == f.FailRank {
		last := 0
		if f.CheckpointEvery > 0 {
			last = (s - 1) / f.CheckpointEvery * f.CheckpointEvery
		}
		replay := float64(s - 1 - last)
		perStep := rc.dataXfer + rc.workers[id].computeTime*rc.hetScale(id) + rc.workerUpdate
		d += rc.ckptTime + replay*perStep
	}
	return d
}

// stall delays this rank by its fault stall at the start of step t, if any.
// Like every second of a run it is charged from the row's root only — the
// Breakdown is the root's clock, and a remote rank's stall already reaches it
// as the wait (collective, barrier, completion) the root charges elsewhere.
func (st *step) stall() {
	if !st.rc.faultsOn {
		return
	}
	if d := st.rc.faultStall(st.rank, st.t+1); d > 0 {
		st.spend(CatRecovery, d)
	}
}
