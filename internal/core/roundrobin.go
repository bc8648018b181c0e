package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/sim"
)

// OriginalEASGDSerial is Algorithm 1 of the paper with no overlap (the
// "Original EASGD*" row of Table 3): per iteration the master interacts
// with exactly one GPU, and every step — data copy, center-weight download,
// forward/backward, local-weight upload, both updates — sits on the
// master's critical path. Communication is ordered by rank (round-robin),
// so only one GPU computes at a time.
func OriginalEASGDSerial(cfg Config) (Result, error) {
	return runRoundRobin(cfg, "original-easgd*", false)
}

// OriginalEASGD is Algorithm 1 as deployed (the "Original EASGD" row):
// identical round-robin schedule, but the j-th GPU's forward/backward
// overlaps with the master's parameter exchange for neighbouring
// iterations, hiding most of the compute behind communication. It remains
// Θ(P) per sweep, the inefficiency the paper's Sync EASGD removes.
//
// Parameter traffic rides the simulated PCIe topology: the center download
// is a per-plan-segment message wave on worker j's host link (per-layer
// plans pay one α per layer — the pageable, unpacked mode the original
// code used), and the upload is a master-driven pull with the same shape.
// Config.Compression delta-encodes both weight streams per worker.
func OriginalEASGD(cfg Config) (Result, error) {
	return runRoundRobin(cfg, "original-easgd", true)
}

// rrCmd travels master→worker: a center snapshot, or the stop sentinel.
type rrCmd struct {
	center []float32
	stop   bool
}

// rrDone is the completion a worker posts after its local step: the
// pre-update weight snapshot (codec reconstruction under compression) and
// the wire size the master's pull will cost. The posting itself is a free
// control signal — the upload's time is charged on the master's critical
// path when it collects, exactly Algorithm 1's ordered exchange. Under the
// streaming pipeline (Config.Overlap) the worker posts one rrDone per
// gradient bucket as its backward emits layers, the last one carrying the
// weights and loss, so the master's pull of bucket k overlaps the compute
// of the layers still ahead of bucket k+1.
type rrDone struct {
	weights []float32 // nil for all but the final bucket of a streamed step
	loss    float64
	wire    int64
	bucket  int // bucket ID of a streamed completion (0 for monolithic)
}

const tagRRCenter = 3

func runRoundRobin(cfg Config, name string, overlap bool) (Result, error) {
	// The master's ordered pulls ride DelayModel, outside comm's guarded
	// message path — semantic faults cannot be injected here, and the
	// support table refuses them.
	rc, err := newRunContext(name, cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = rc.cfg // validated copy with defaults applied
	// The master is the coordinator here and charges its wait for every
	// worker's completion as exposed compute; a worker's fault stall already
	// lands there, so it must not also be charged to CatRecovery.
	rc.chargeRecovery = false
	env := sim.NewEnv()
	defer env.Close()

	g := cfg.Workers
	topo := cfg.Platform.topology(env, g, true)
	master := topo.Host()
	done := make([]*sim.Queue, g)
	for j := 0; j < g; j++ {
		done[j] = sim.NewQueue(env, fmt.Sprintf("done%d", j))
	}
	// Both directions carry weights, so the codec bundle is the EASGD-style
	// (elastic) one: delta codecs per directed stream.
	codecs := newPSCodecs(cfg, len(rc.center), true)
	up, down := codecs.upW, codecs.down
	stream := rc.newStream(rc.plan, nil)
	nb := stream.bz.NumBuckets()

	// Workers: wait for a center-weight message, run one real minibatch
	// forward/backward, post the pre-update weights, then apply Eq. (1)
	// locally. Worker time runs concurrently with the master's pipeline,
	// and in the overlapped schedule several workers' compute windows
	// coincide — their gradient math genuinely overlaps on the par pool
	// while each simulated process waits out its compute delay.
	for j := 0; j < g; j++ {
		j := j
		w := rc.workers[j]
		env.Spawn(fmt.Sprintf("gpu%d", j), func(p *sim.Proc) {
			for step := 1; ; step++ {
				cmd := topo.Recv(p, j, master, tagRRCenter).(rrCmd)
				if cmd.stop {
					return
				}
				rc.injectFaults(p, j, step)
				if cfg.Overlap {
					// Streaming: post one free bucket completion per
					// gradient-ready instant; the pre-update weight snapshot
					// (identical to the monolithic one — Params do not change
					// during compute) rides the final bucket.
					var snap []float32
					var wires []int64
					prepared := false
					emitted := 0
					stream.walk(p, w, rc.computeScale(j, step), func(b int, bk comm.Bucket) {
						if !prepared {
							var wire int64
							snap, wire = w.snapshotWeights(codecAt(up, j))
							wires = stream.bz.SplitWire(wire)
							prepared = true
						}
						d := rrDone{wire: wires[b], bucket: b}
						if emitted++; emitted == nb {
							// The last emission carries the snapshot + loss.
							d.weights = snap
							d.loss = w.lastLoss
						}
						done[j].Send(d)
					}, nil)
				} else {
					join := w.beginGradient()
					p.Delay(rc.computeDelay(j, step))
					loss := join()
					snap, wire := w.snapshotWeights(codecAt(up, j))
					done[j].Send(rrDone{weights: snap, loss: loss, wire: wire})
				}
				w.elasticLocal(cfg.LR, cfg.Rho, cmd.center)
				p.Delay(rc.workerUpdate)
			}
		})
	}

	// Master: the round-robin loop of Algorithm 1. With overlap enabled the
	// completion of worker j is collected just before j's next turn, G
	// iterations later, so its compute hides behind the other workers'
	// parameter exchanges.
	pending := make([]bool, g)
	env.Spawn("master", func(p *sim.Proc) {
		sendCenter := func(j int) {
			center := make([]float32, len(rc.center))
			wire := int64(len(center)) * 4
			if down != nil {
				wire = down[j].Encode(rc.center, center)
			} else {
				copy(center, rc.center)
			}
			t0 := p.Now()
			rc.bd.AddBytes(CatCPUGPUParam, wire)
			topo.SendModel(p, master, j, tagRRCenter, rrCmd{center: center}, rc.plan, wire)
			rc.bd.Add(CatCPUGPUParam, p.Now()-t0)
		}
		collect := func(j int) {
			// Upload W_j to the CPU (line 12): a master-driven pull over j's
			// host link — per gradient bucket under the streaming pipeline
			// (each pull starts the moment its bucket's layers are ready,
			// overlapping the worker's remaining backward), in one piece
			// otherwise. Exposed wait is compute, pull time is parameter
			// communication, so the breakdown still sums to wall-clock.
			var m rrDone
			pull := func(bk rrDone, plan comm.Plan) {
				rc.bd.AddBytes(CatCPUGPUParam, bk.wire)
				t1 := p.Now()
				topo.DelayModel(p, j, master, plan, bk.wire)
				rc.bd.Add(CatCPUGPUParam, p.Now()-t1)
			}
			if cfg.Overlap {
				for range stream.buckets {
					t0 := p.Now()
					mb := p.Recv(done[j]).(rrDone)
					rc.bd.Add(CatForwardBackward, p.Now()-t0) // exposed compute = wait time
					pull(mb, stream.bz.SubPlan(stream.buckets[mb.bucket]))
					if mb.weights != nil {
						m = mb
					}
				}
			} else {
				t0 := p.Now()
				m = p.Recv(done[j]).(rrDone)
				rc.bd.Add(CatForwardBackward, p.Now()-t0) // exposed compute = wait time
				pull(m, rc.plan)
			}
			// Line 14: W̄ ← W̄ + ηρ(W_j − W̄) with the pre-update W_j.
			centerElasticUpdate(rc.center, m.weights, rc.center, cfg.LR, cfg.Rho)
			p.Delay(rc.masterUpdate)
			rc.bd.Add(CatCPUUpdate, rc.masterUpdate)
			rc.updates++
			pending[j] = false
		}
		for t := 0; t < cfg.Iterations && !rc.stopped; t++ {
			j := t % g
			if pending[j] {
				collect(j)
			}
			// Lines 8-9: pick b samples, async copy to GPU j.
			p.Delay(rc.dataXfer)
			rc.bd.Add(CatCPUGPUData, rc.dataXfer)
			// Line 10: send W̄ down.
			sendCenter(j)
			rc.samples += int64(cfg.Batch)
			if !overlap {
				collect(j)
			} else {
				pending[j] = true
			}
			if cfg.EvalEvery > 0 && (t+1)%cfg.EvalEvery == 0 {
				rc.recordPoint(t+1, p.Now(), rc.workers[j].lastLoss)
			}
		}
		for j := 0; j < g; j++ {
			if pending[j] {
				collect(j)
			}
			topo.Send(p, master, j, tagRRCenter, rrCmd{stop: true}, 0)
		}
	})

	end := env.Run()
	return rc.finish(name, end), nil
}
