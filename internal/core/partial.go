package core

import (
	"scaledl/internal/comm"
	"scaledl/internal/sim"
)

// Partial aggregation (FaultPlan.PartialK): the semantic-fault variant of
// sync-sgd's gradient combine. Instead of an allreduce that waits for all
// P contributions, rank 0 gathers gradients parameter-server style and
// proceeds once K live contributions (its own included) have arrived and
// the deadline has passed for the rest; a rank whose step-t gradient
// misses the window contributes zero to step t. Every replica still
// applies the identical averaged step — rank 0 sends the accepted sum back
// to all live ranks — so the replicas never drift from each other, only
// (deterministically) from the full-aggregation twin.
//
// Determinism: message arrival order is a pure function of the simulation,
// and the accepted gradients are combined in ascending rank order
// regardless of when they arrived, so the same configuration and fault
// seed drop the same ranks at the same steps and produce bit-identical
// sums. The drop log lands in Result.Dropped and rank 0's deadline wait in
// CatDropped.

// partialAgg is the shared state of the gather; one per run. It is an
// exchange of the step frame (gradExchange's in-line collective), not a fake
// endpoint: it neither streams ranges nor gathers factors, and the support
// table refuses PartialK with Overlap or a factor CommMode before a run
// starts.
type partialAgg struct {
	rc   *runContext
	topo *comm.Topology
	k    int
	// deadline is the drop window in simulated seconds past the quorum:
	// PartialDeadline × one gradient message's wire time into rank 0.
	deadline float64
	wb       int64 // wire bytes of one gradient (or compressed) message
	n        int
	dead     []bool
	sum      []float32
	got      [][]float32 // per-rank payload refs of the current step
	snaps    [][]float32 // per-sender payload scratch (reused every step)
}

func newPartialAgg(rc *runContext, topo *comm.Topology, wire comm.WireFunc) *partialAgg {
	cfg := rc.cfg
	if cfg.Faults.PartialK == 0 {
		return nil
	}
	n := len(rc.center)
	wb := int64(n) * 4
	if wire != nil {
		wb = wire(n)
	}
	dl := cfg.Faults.PartialDeadline
	if dl == 0 {
		dl = 3
	}
	pa := &partialAgg{
		rc:   rc,
		topo: topo,
		k:    cfg.Faults.PartialK,
		wb:   wb,
		n:    cfg.Workers,
		dead: make([]bool, cfg.Workers),
		sum:  make([]float32, n),
		got:  make([][]float32, cfg.Workers),
	}
	if cfg.Workers > 1 {
		pa.deadline = dl * topo.TransferTime(1, 0, wb)
	}
	pa.snaps = make([][]float32, cfg.Workers)
	for i := 1; i < cfg.Workers; i++ {
		pa.snaps[i] = make([]float32, n)
	}
	return pa
}

// Tags: step t's gradients travel as 2t, its result as 2t+1, so a dropped
// rank's stale gradient is recognizable (and discardable) by its older tag
// at any later step.
func gradTag(round int) int   { return 2 * round }
func resultTag(round int) int { return 2*round + 1 }

func (pa *partialAgg) allReduce(p *sim.Proc, round, rank int, buf []float32) {
	if rank != 0 {
		// Send a snapshot (buf is overwritten by the result below; a
		// dropped message's payload must stay readable as stale) and block
		// for the step's accepted sum.
		snap := pa.snaps[rank]
		copy(snap, buf)
		pa.topo.Send(p, rank, 0, gradTag(round), snap, pa.wb)
		res := pa.topo.Recv(p, rank, 0, resultTag(round)).([]float32)
		copy(buf, res)
		return
	}

	// Rank 0: gather until K contributions are in (blocking), then give the
	// rest the deadline window, then drop whoever is still missing.
	for i := range pa.got {
		pa.got[i] = nil
	}
	live := 0
	for r := 1; r < pa.n; r++ {
		if !pa.dead[r] {
			live++
		}
	}
	need := pa.k - 1 // beyond rank 0's own contribution
	if need > live {
		need = live
	}
	tag := gradTag(round)
	match := func(m comm.Message) bool { return m.Tag <= tag }
	count := 0
	start := p.Now()
	for count < live {
		var m comm.Message
		if count < need {
			m = pa.topo.RecvMatch(p, 0, match)
		} else {
			remaining := pa.deadline - (p.Now() - start)
			if remaining <= 0 {
				break
			}
			tw := p.Now()
			var ok bool
			m, ok = pa.topo.RecvMatchTimeout(p, 0, remaining, match)
			if !ok {
				// The window expired empty-handed: that wait is the cost of
				// the ranks about to be dropped.
				pa.rc.droppedWait += p.Now() - tw
				break
			}
		}
		if m.Tag != tag {
			continue // a dropped rank's stale gradient from an earlier step
		}
		pa.got[m.Src] = m.Payload.([]float32)
		count++
	}

	// Combine in ascending rank order — independent of arrival order, so
	// the sum is bit-stable — and log the drops.
	copy(pa.sum, buf)
	var droppedRanks []int
	for r := 1; r < pa.n; r++ {
		if pa.dead[r] {
			continue
		}
		g := pa.got[r]
		if g == nil {
			droppedRanks = append(droppedRanks, r)
			continue
		}
		for j, v := range g {
			pa.sum[j] += v
		}
	}
	if len(droppedRanks) > 0 {
		pa.rc.dropped = append(pa.rc.dropped, DropRecord{Step: round + 1, Ranks: droppedRanks})
	}
	copy(buf, pa.sum)

	// Every live rank — dropped ones included — receives the identical
	// accepted sum, so all surviving replicas take the same step. The
	// iteration barrier keeps pa.sum stable until everyone has copied it.
	for r := 1; r < pa.n; r++ {
		if !pa.dead[r] {
			pa.topo.Send(p, 0, r, resultTag(round), pa.sum, pa.wb)
		}
	}
}

// markDead removes rank from the gather (fail-continue): rank 0 stops
// expecting its gradients and stops sending it results, and the topology
// drops any traffic still aimed at it.
func (pa *partialAgg) markDead(rank int) {
	if pa.dead[rank] {
		return
	}
	pa.dead[rank] = true
	pa.topo.MarkDead(rank)
}
