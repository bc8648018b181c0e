package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
	"scaledl/internal/tensor"
)

// The six asynchronous methods share two skeletons.
//
// SGD-style (Async SGD, Async MSGD, Hogwild SGD — the existing methods of
// §3.1/§3.2): the worker downloads W̄, computes a gradient on it, and ships
// the gradient; the master folds the gradient into W̄ and replies with the
// new W̄. The worker is idle during the round trip because its next gradient
// needs the fresh weights.
//
// EASGD-style (Async EASGD, Async MEASGD, Hogwild EASGD — the paper's
// methods of §5.1): the worker keeps local weights, ships them, and
// computes its next gradient *during* the round trip (steps (1)-(2) of
// §5.1 overlap); the master applies Equation (2) and replies with W̄, which
// the worker folds in via Equation (1) (or (5)-(6) with momentum).
//
// The lock-free (Hogwild) variants differ only at the master: instead of a
// FIFO critical section serializing updates, every arrival is served by a
// concurrent handler that reads a center snapshot at service start and
// commits additively — the deterministic model of componentwise-atomic
// lock-free updates (§3.2, §5.1, convergence proof referenced by the paper).
//
// Parameter messages travel the simulated PCIe topology: each transfer is
// a per-plan-segment message on the worker's host link, so per-layer plans
// pay their per-message α here too, and gradient compression
// (Config.Compression) shrinks each message's wire size — gradients ride
// per-worker error-feedback quantizers, weight streams (the EASGD payloads
// and every center reply) ride delta codecs.

// AsyncSGD is the parameter-server baseline (Dean et al.), FCFS with a
// master-side lock.
func AsyncSGD(cfg Config) (Result, error) {
	return runAsync(cfg, "async-sgd", asyncOpts{})
}

// AsyncMSGD is Async SGD with momentum applied at the master (Equations
// (3)-(4)).
func AsyncMSGD(cfg Config) (Result, error) {
	return runAsync(cfg, "async-msgd", asyncOpts{momentum: true})
}

// HogwildSGD removes the master lock from Async SGD (§3.2).
func HogwildSGD(cfg Config) (Result, error) {
	return runAsync(cfg, "hogwild-sgd", asyncOpts{lockFree: true})
}

// AsyncEASGD replaces Original EASGD's round-robin rule with
// first-come-first-served parameter-server scheduling (§5.1).
func AsyncEASGD(cfg Config) (Result, error) {
	return runAsync(cfg, "async-easgd", asyncOpts{elastic: true})
}

// AsyncMEASGD adds momentum to Async EASGD's local update (Equations
// (5)-(6)).
func AsyncMEASGD(cfg Config) (Result, error) {
	return runAsync(cfg, "async-measgd", asyncOpts{elastic: true, momentum: true})
}

// HogwildEASGD removes the master lock from Async EASGD: the master
// processes multiple local weights concurrently with lock-free elastic
// updates (§5.1), one of the paper's two headline algorithms.
func HogwildEASGD(cfg Config) (Result, error) {
	return runAsync(cfg, "hogwild-easgd", asyncOpts{elastic: true, lockFree: true})
}

type asyncOpts struct {
	elastic  bool // EASGD-style worker/master rules
	momentum bool
	lockFree bool
}

// psRequest travels worker→master. For SGD-style methods payload is the
// (possibly quantizer-reconstructed) gradient; for EASGD-style it is the
// worker's local weights. loss is the batch loss of the round that produced
// the payload (0 for an EASGD worker's first request, which ships the
// initial weights before any batch): carrying it in the message keeps the
// master's loss telemetry deterministic while the worker's next gradient is
// in flight on the par pool.
type psRequest struct {
	from    int
	loss    float64
	payload []float32
}

// psReply travels master→worker.
type psReply struct {
	center []float32 // snapshot of W̄ after the update (codec reconstruction)
	stop   bool
}

// Message tags on the parameter-server topology.
const (
	tagPSRequest = 1
	tagPSReply   = 2
)

// psCodecs bundles the per-stream compression state of one
// parameter-server-style run (async and round-robin): nil members mean
// raw fp32. Gradient streams get plain error-feedback quantizers; weight
// streams (EASGD payloads, center replies) get delta codecs.
type psCodecs struct {
	up   []*quant.Quantizer  // worker→master gradient streams (SGD-style)
	upW  []*quant.DeltaCodec // worker→master weight streams (EASGD-style)
	down []*quant.DeltaCodec // master→worker center streams
}

// codecAt indexes a per-worker codec slice (delta codecs, quantizers),
// tolerating the nil (uncompressed) bundle.
func codecAt[T any](s []*T, i int) *T {
	if s == nil {
		return nil
	}
	return s[i]
}

func newPSCodecs(cfg Config, n int, elastic bool) psCodecs {
	var c psCodecs
	if cfg.Compression == quant.None {
		return c
	}
	c.down = make([]*quant.DeltaCodec, cfg.Workers)
	for i := range c.down {
		c.down[i] = quant.NewDeltaCodec(cfg.Compression, n)
	}
	if elastic {
		c.upW = make([]*quant.DeltaCodec, cfg.Workers)
		for i := range c.upW {
			c.upW[i] = quant.NewDeltaCodec(cfg.Compression, n)
		}
	} else {
		c.up = make([]*quant.Quantizer, cfg.Workers)
		for i := range c.up {
			c.up[i] = quant.New(cfg.Compression, n)
		}
	}
	return c
}

func runAsync(cfg Config, name string, opt asyncOpts) (Result, error) {
	// The parameter-server transfers ride SendModel/DelayModel, outside
	// comm's guarded message path — semantic faults cannot be injected here,
	// and the support table refuses them.
	rc, err := newRunContext(name, cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = rc.cfg // validated copy with defaults applied
	env := sim.NewEnv()
	defer env.Close()

	topo := cfg.Platform.topology(env, cfg.Workers, false)
	master := topo.Host()
	codecs := newPSCodecs(cfg, len(rc.center), opt.elastic)
	// The streaming pipeline for SGD-style uploads (Config.Overlap): the
	// worker pushes one parameter-server message per gradient bucket as its
	// backward emits layers, so most of the upload's wire time hides under
	// the tail of backprop. EASGD-style workers already overlap the whole
	// round trip with their *next* gradient (§5.1 steps (1)-(2)) — their
	// payload is weights, ready before compute starts — so they keep that
	// stronger overlap untouched.
	stream := rc.newStream(rc.plan, nil)
	var velocity []float32
	if opt.momentum && !opt.elastic {
		velocity = make([]float32, len(rc.center)) // master-side momentum
	}

	// Master: FIFO service off the host inbox. Locked variants hold the
	// critical section for update+reply; the lock-free variants dispatch a
	// concurrent handler per request, so service times overlap.
	dispatched := 0
	env.Spawn("master", func(p *sim.Proc) {
		stopsSent := 0
		for stopsSent < cfg.Workers {
			req := topo.RecvAny(p, master).Payload.(psRequest)
			if dispatched >= cfg.Iterations || rc.stopped {
				// Stop sentinels are zero-size control messages.
				topo.Send(p, master, req.from, tagPSReply, psReply{stop: true}, 0)
				stopsSent++
				continue
			}
			dispatched++
			if opt.lockFree {
				r := req
				env.Spawn(fmt.Sprintf("handler-%d", dispatched), func(h *sim.Proc) {
					serveOne(h, rc, cfg, opt, topo, codecs, r, velocity)
				})
			} else {
				serveOne(p, rc, cfg, opt, topo, codecs, req, velocity)
			}
		}
	})

	for i := 0; i < cfg.Workers; i++ {
		i := i
		w := rc.workers[i]
		var crew *bucketCrew
		if cfg.Overlap && !opt.elastic {
			// Capacity 1: a worker's host uplink is one DMA engine, so its
			// bucket uploads stream back to back, not in parallel.
			crew = newBucketCrew(env, fmt.Sprintf("worker%d", i), 1)
		}
		env.Spawn(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
			ship := func(loss float64, payload []float32, wire int64) {
				rc.bd.AddBytes(CatCPUGPUParam, wire)
				topo.SendModel(p, i, master, tagPSRequest,
					psRequest{from: i, loss: loss, payload: payload}, rc.plan, wire)
			}
			for iter := 0; ; iter++ {
				rc.injectFaults(p, i, iter+1)
				// Minibatch copy to the device.
				p.Delay(rc.dataXfer)
				if opt.elastic {
					// Ship local weights, then overlap the gradient with the
					// round trip (§5.1 steps (1)-(2)). The overlap is real as
					// well as simulated: the forward/backward runs on the par
					// pool while this process waits out the round trip, so
					// other workers' gradients execute concurrently with it.
					snap, wire := w.snapshotWeights(codecAt(codecs.upW, i))
					ship(w.lastLoss, snap, wire)
					join := w.beginGradient()
					p.Delay(rc.computeDelay(i, iter+1))
					join()
					rep := topo.Recv(p, i, master, tagPSReply).(psReply)
					if rep.stop {
						return
					}
					if opt.momentum {
						w.momentumElasticLocal(cfg.LR, cfg.Momentum, cfg.Rho, rep.center)
					} else {
						w.elasticLocal(cfg.LR, cfg.Rho, rep.center)
					}
					p.Delay(rc.workerUpdate)
				} else if cfg.Overlap {
					// Streaming upload: per-bucket wire charges fork as the
					// backward emits layers (one at a time — a worker's host
					// uplink is a single DMA engine), then the logical request
					// arrives as a zero-size control message whose bytes were
					// already paid bucket by bucket.
					prepared := false
					var wires []int64
					loss := stream.walk(p, w, rc.computeScale(i, iter+1), func(b int, bk comm.Bucket) {
						if !prepared {
							wires = stream.bz.SplitWire(w.quantizeGrads(codecAt(codecs.up, i)))
							prepared = true
						}
						sub := stream.bz.SubPlan(bk)
						crew.fork(fmt.Sprintf("up%d.%d.%d", i, iter, b), func(bp *sim.Proc) {
							rc.bd.AddBytes(CatCPUGPUParam, wires[b])
							topo.DelayModel(bp, i, master, sub, wires[b])
						})
					}, nil)
					// Upload seconds beyond the walk's end are exposed; the
					// rest ran hidden beneath the backward.
					tWalk := p.Now()
					busy := crew.wait(p)
					rc.bd.AddHidden(busy - (p.Now() - tWalk))
					topo.Send(p, i, master, tagPSRequest,
						psRequest{from: i, loss: loss, payload: w.net.Grads}, 0)
					rep := topo.Recv(p, i, master, tagPSReply).(psReply)
					if rep.stop {
						return
					}
					copy(w.net.Params, rep.center)
				} else {
					// Gradient on the freshly fetched weights, then wait. The
					// math overlaps (in real time) with the other workers'
					// in-flight gradients via the par pool; the join lands
					// before the gradient is shipped.
					join := w.beginGradient()
					p.Delay(rc.computeDelay(i, iter+1))
					loss := join()
					ship(loss, w.net.Grads, w.quantizeGrads(codecAt(codecs.up, i)))
					rep := topo.Recv(p, i, master, tagPSReply).(psReply)
					if rep.stop {
						return
					}
					copy(w.net.Params, rep.center)
				}
				rc.samples += int64(cfg.Batch)
			}
		})
	}

	end := env.Run()
	return rc.finish(name, end), nil
}

// serveOne performs one master-side service: the update rule, then the
// reply transfer back to the worker. In locked mode it runs inside the
// master's loop (serializing); in lock-free mode it runs in its own process.
func serveOne(p *sim.Proc, rc *runContext, cfg Config, opt asyncOpts, topo *comm.Topology, codecs psCodecs, req psRequest, velocity []float32) {
	if opt.elastic {
		// Equation (2) for one arrival. The center snapshot is taken at
		// service start; with the lock this equals the live center, without
		// it concurrent handlers read stale snapshots — the Hogwild race.
		snap := append([]float32(nil), rc.center...)
		p.Delay(rc.masterUpdate)
		rc.bd.Add(CatCPUUpdate, rc.masterUpdate)
		centerElasticUpdate(rc.center, req.payload, snap, cfg.LR, cfg.Rho)
	} else {
		p.Delay(rc.masterUpdate)
		rc.bd.Add(CatCPUUpdate, rc.masterUpdate)
		if opt.momentum {
			for i := range rc.center {
				velocity[i] = cfg.Momentum*velocity[i] - cfg.LR*req.payload[i]
				rc.center[i] += velocity[i]
			}
		} else {
			tensor.AXPY(-cfg.LR, req.payload, rc.center) // W̄ ← W̄ − η·∆W
		}
	}
	rc.updates++
	if cfg.EvalEvery > 0 && rc.updates%int64(cfg.EvalEvery) == 0 {
		rc.recordPoint(int(rc.updates), p.Now(), req.loss)
	}
	// The reply transfer occupies the lock in the locked variants; in
	// Hogwild it is a concurrent DMA on the worker's own host link.
	reply := make([]float32, len(rc.center))
	wire := int64(len(reply)) * 4
	if codecs.down != nil {
		wire = codecs.down[req.from].Encode(rc.center, reply)
	} else {
		copy(reply, rc.center)
	}
	t0 := p.Now()
	rc.bd.AddBytes(CatCPUGPUParam, wire)
	topo.SendModel(p, topo.Host(), req.from, tagPSReply, psReply{center: reply}, rc.plan, wire)
	rc.bd.Add(CatCPUGPUParam, p.Now()-t0)
}
