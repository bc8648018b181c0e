package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/nn"
	"scaledl/internal/sim"
)

// This file is the layer-streaming gradient pipeline (Config.Overlap): the
// glue between nn's per-layer gradient-ready events, comm's Bucketizer and
// Range collectives, and the algorithms in sync.go / async.go /
// roundrobin.go / knlcluster.go.
//
// The dependency structure the paper's overlap exploits — and that Poseidon
// (wait-free backprop) and FireCaffe (per-layer reduction trees) build
// whole systems on — is that layer L's parameter gradient is final the
// moment layer L's backward completes, while layers L−1…0 are still
// computing. streamPlan.walk turns that structure into simulated time: the
// worker's real backward records its GradEvent stream
// (nn.Net.LossAndGradStream), and the walk replays that exact emission
// sequence on the virtual clock — each event charges its layer's backward
// share (per-layer FLOP split of computeTime), and the instant an event
// completes a bucket, the algorithm launches that bucket's communication in
// a forked process. Overlap is then *emergent*: the simulated step time
// falls below compute + full-collective exactly when (and because) bucket
// wire time fits under the remaining backward, not because any algorithm
// asserts a max().

// maxInFlightBuckets bounds how many bucket collectives one worker keeps in
// flight at once (the DMA/channel depth of real implementations): bucket
// k+1's messages may overlap bucket k's wire time, but a worker never
// floods the fabric with its whole backlog at once.
const maxInFlightBuckets = 2

// streamPlan precomputes the streaming pipeline of one run: the bucket
// layout over the communicator's plan, the per-layer time shares that
// convert the real event stream into virtual instants, and the
// layer→segment mapping that feeds events into buckets.
type streamPlan struct {
	bz      *comm.Bucketizer
	buckets []comm.Bucket
	compute float64 // full forward+backward time (== worker.computeTime)
	fwd     float64 // forward share: computeTime/3 (the standard 1:2 split)

	flops      []float64 // per nn layer, floored at 1 so every event takes a step
	totalFlops float64
	segOfLayer []int // nn layer index -> plan segment, -1 for parameter-free layers

	// wholeModel marks plans whose segments do not correspond to the
	// model's parameter layers (the compressed single-residual plan): such
	// payloads need the complete gradient, so every bucket is ready only at
	// backward completion.
	wholeModel bool
}

// newStream builds the streaming plan for a communicator plan. A non-nil
// skip masks plan segments out of the bucket stream — the hybrid comm mode's
// SFB layers, whose factors ride their own collective and fire through
// walk's onFactor instead of completing a bucket.
func (rc *runContext) newStream(plan comm.Plan, skip []bool) *streamPlan {
	if len(plan.LayerBytes) == 0 {
		// A parameter-free model moves no gradients; stream one empty
		// bucket so the pipeline shape (and round numbering) still holds.
		plan.LayerBytes = []int64{0}
		skip = nil
	}
	bz := comm.NewBucketizerMasked(plan, rc.cfg.BucketBytes, skip)
	sp := &streamPlan{
		bz:      bz,
		buckets: bz.Buckets(),
		compute: rc.workers[0].computeTime,
	}
	sp.fwd = sp.compute / 3
	if len(plan.LayerBytes) != len(rc.paramLayers) {
		sp.wholeModel = true
		return sp
	}
	sp.flops = make([]float64, len(rc.layerFlops))
	for i, f := range rc.layerFlops {
		sp.flops[i] = float64(f)
		if sp.flops[i] <= 0 {
			sp.flops[i] = 1 // parameter-free/zero-cost layers still take a step
		}
		sp.totalFlops += sp.flops[i]
	}
	sp.segOfLayer = make([]int, len(rc.layerFlops))
	for i := range sp.segOfLayer {
		sp.segOfLayer[i] = -1
	}
	for seg, layer := range rc.paramLayers {
		sp.segOfLayer[layer] = seg
	}
	return sp
}

// walk advances p through the streaming schedule of one minibatch. It
// starts the worker's real forward/backward on the par pool (recording the
// GradEvent stream), delays out the forward share, joins — the pool work is
// complete and the event sequence final before any gradient value or event
// can be observed — then replays the recorded events on the virtual clock:
// each event advances time by its layer's backward share, and the event
// that completes a bucket triggers onBucket at that instant. The emission
// order is therefore the real backward's, not a schedule derived on the
// side; the instants land so the total delayed time is exactly computeTime.
// scale stretches the whole walk uniformly (1 for nominal speed) — the
// fault model's heterogeneity and straggler factors slow forward and
// backward alike, so bucket-ready instants shift proportionally.
//
// Masked segments have a second emission channel: a plan segment the
// bucketizer skipped (an SFB layer of the hybrid comm mode) belongs to no
// bucket, so its gradient-ready event fires onFactor at the layer's own ready
// instant — same clock formula as a bucket completion — handing the caller
// the event (whose DY/X factor views are live) to launch the factor
// collective. onFactor may be nil when no segment is masked.
func (sp *streamPlan) walk(p *sim.Proc, w *worker, scale float64, onBucket func(b int, bk comm.Bucket), onFactor func(seg int, e nn.GradEvent)) float64 {
	compute := sp.compute * scale
	fwd := sp.fwd * scale
	w.recordEvents = !sp.wholeModel
	join := w.beginGradient()
	// Delay the forward share first: the yield lets every peer process
	// submit its own gradient before this goroutine blocks in the join, so
	// the replicas' real math still overlaps on the pool.
	p.Delay(fwd)
	loss := join()
	now := fwd
	if sp.wholeModel {
		p.Delay(compute - now)
		for b, bk := range sp.buckets {
			onBucket(b, bk)
		}
		return loss
	}
	pending := make([]int, len(sp.buckets))
	for b, bk := range sp.buckets {
		pending[b] = bk.SegHi - bk.SegLo + 1
	}
	cum := 0.0
	for _, e := range w.events {
		cum += sp.flops[e.Layer]
		seg := sp.segOfLayer[e.Layer]
		if seg < 0 {
			continue
		}
		// fwd + the backward shares of every layer emitted so far: the
		// instant this layer's gradient (and factor views) are final.
		at := compute * (1.0/3 + (2.0/3)*cum/sp.totalFlops)
		if sp.bz.Skipped(seg) {
			if onFactor != nil {
				if at > now {
					p.Delay(at - now)
					now = at
				}
				onFactor(seg, e)
			}
			continue
		}
		b := sp.bz.BucketOf(seg).ID
		pending[b]--
		if pending[b] == 0 {
			// This event completed bucket b.
			if at > now {
				p.Delay(at - now)
				now = at
			}
			onBucket(b, sp.buckets[b])
		}
	}
	if compute > now {
		p.Delay(compute - now)
	}
	return loss
}

// forkBroadcasts launches the bucketed broadcast of a payload that is ready
// now (EASGD3's and the KNL cluster's center weight, fixed by the previous
// master update): one BroadcastRange per bucket on rounds base+b, gated by
// the crew's in-flight bound, running beneath whatever the caller does next.
func (sp *streamPlan) forkBroadcasts(crew *bucketCrew, prefix string, base, root int, ep *comm.Endpoint, buf []float32) {
	for b, bk := range sp.buckets {
		b, bk := b, bk
		crew.fork(fmt.Sprintf("%s.%d", prefix, b), func(bp *sim.Proc) {
			ep.BroadcastRange(bp, base+b, root, buf, bk.Lo, bk.Hi)
		})
	}
}

// bucketCrew tracks one worker's in-flight bucket transfers within an
// iteration: forked processes gated to an in-flight bound, with the forked
// procs' busy seconds accumulated for hidden-communication accounting.
type bucketCrew struct {
	env   *sim.Env
	slots *sim.Resource
	comps []*sim.Completion
	busy  float64
}

// newBucketCrew creates the per-worker crew with the given in-flight depth
// (collectives use maxInFlightBuckets; single-DMA point-to-point streams use
// 1); slots persist across iterations so the bound spans them too.
func newBucketCrew(env *sim.Env, name string, inFlight int) *bucketCrew {
	return &bucketCrew{env: env, slots: sim.NewResource(env, name+".slots", inFlight)}
}

// fork launches one bucket transfer. body runs once an in-flight slot is
// free; its busy time (excluding the slot wait) accumulates.
func (bc *bucketCrew) fork(name string, body func(bp *sim.Proc)) {
	bc.comps = append(bc.comps, bc.env.Fork(name, func(bp *sim.Proc) {
		bp.Acquire(bc.slots)
		t0 := bp.Now()
		body(bp)
		bc.busy += bp.Now() - t0
		bc.slots.Release()
	}))
}

// wait joins every in-flight transfer and returns (and resets) the
// accumulated busy time.
func (bc *bucketCrew) wait(p *sim.Proc) float64 {
	for _, c := range bc.comps {
		c.Wait(p)
	}
	busy := bc.busy
	bc.comps = bc.comps[:0]
	bc.busy = 0
	return busy
}
