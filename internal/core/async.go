package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
	"scaledl/internal/tensor"
)

// The six parameter-server methods are rows of the served frame (served.go):
// first-come-first-served arrival, and a push/pull seam in one of two styles.
//
// SGD-style (Async SGD, Async MSGD, Hogwild SGD — the existing methods of
// §3.1/§3.2): compute → push → pull. The worker computes a gradient on the
// W̄ it holds and ships it; the master folds it into W̄ and replies with the
// new W̄. The worker is idle for the round trip because its next gradient
// needs the fresh weights, so all of it is exposed.
//
// EASGD-style (Async EASGD, Async MEASGD, Hogwild EASGD — the paper's
// methods of §5.1): push → compute → pull. The worker keeps local weights,
// ships them, and computes its next gradient *during* the round trip (steps
// (1)-(2) of §5.1 overlap); the master applies Equation (2) and replies with
// W̄, which the worker folds in via Equation (1) (or (5)-(6) with momentum).
// Only what of the round trip outlasts the gradient is exposed.
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
//
// The account is rank 0's clock: stall, data copy, compute and local update
// are its own seconds; the upload, the master's queue, update and reply are
// its parameter-server wait (cpu-gpu para), hidden where they ran beneath the
// gradient.

// AsyncSGD is the parameter-server baseline (Dean et al.), FCFS with a
// master-side lock.
func AsyncSGD(cfg Config) (Result, error) { return paramServer(cfg, "async-sgd", false, false, false) }

// AsyncMSGD is Async SGD with momentum applied at the master (Equations
// (3)-(4)).
func AsyncMSGD(cfg Config) (Result, error) { return paramServer(cfg, "async-msgd", false, true, false) }

// HogwildSGD removes the master lock from Async SGD (§3.2).
func HogwildSGD(cfg Config) (Result, error) {
	return paramServer(cfg, "hogwild-sgd", false, false, true)
}

// AsyncEASGD replaces Original EASGD's round-robin rule with
// first-come-first-served parameter-server scheduling (§5.1).
func AsyncEASGD(cfg Config) (Result, error) {
	return paramServer(cfg, "async-easgd", true, false, false)
}

// AsyncMEASGD adds momentum to Async EASGD's local update (Equations
// (5)-(6)).
func AsyncMEASGD(cfg Config) (Result, error) {
	return paramServer(cfg, "async-measgd", true, true, false)
}

// HogwildEASGD removes the master lock from Async EASGD: the master
// processes multiple local weights concurrently with lock-free elastic
// updates (§5.1), one of the paper's two headline algorithms.
func HogwildEASGD(cfg Config) (Result, error) {
	return paramServer(cfg, "hogwild-easgd", true, false, true)
}

func paramServer(cfg Config, name string, elastic, momentum, lockFree bool) (Result, error) {
	return runRow(name, cfg, func(rc *runContext, env *sim.Env) frame {
		cfg := rc.cfg
		const cat = CatCPUGPUParam
		topo := cfg.Platform.topology(env, cfg.Workers, false)
		master, n := topo.Host(), len(rc.center)
		// Gradient uploads ride error-feedback quantizers, weight uploads and
		// every center reply delta codecs (nil entries: raw fp32).
		down := perWorker(cfg, quant.NewDeltaCodec, n)
		var upG []*quant.Quantizer
		var upW []*quant.DeltaCodec
		if elastic {
			upW = perWorker(cfg, quant.NewDeltaCodec, n)
		} else {
			upG = perWorker(cfg, quant.New, n)
		}
		stream := rc.newStream(rc.plan, nil)
		// A worker has at most one request in flight and blocks on its reply,
		// so one request slot and one reply buffer per worker stream suffice:
		// the master is done reading a payload before it replies, and a worker
		// has consumed a reply before it sends the request that leads to the
		// next one.
		inflight := make([]pushMsg, cfg.Workers)
		replies := make([]*pullMsg, cfg.Workers)
		for i := range replies {
			replies[i] = &pullMsg{center: make([]float32, n)}
		}
		var velocity []float32
		if momentum && !elastic {
			velocity = make([]float32, n) // master-side momentum
		}
		return served{topo: topo, root: 0, cat: cat, dataXfer: rc.dataXfer, lockFree: lockFree,
			arrive: func(ms *step, _ int) int {
				m := topo.RecvAny(ms.p, master)
				inflight[m.Src] = m.Payload.(pushMsg)
				return m.Src
			},
			// Locked variants hold the critical section for update + reply; a
			// lock-free handler's reply is a concurrent DMA on the worker's own
			// host link.
			serve: func(_ *step, p *sim.Proc, j int) {
				req, rep, t0 := inflight[j], replies[j], p.Now()
				// Equation (2) reads the center as of service start. With the
				// lock that is the live center (centerElasticUpdate lets the two
				// alias); without it concurrent handlers commit in between — the
				// Hogwild race — so the handler keeps a snapshot, in the reply
				// buffer, which is idle until the reply is encoded below.
				before := rc.center
				if elastic && lockFree {
					before = rep.center
					copy(before, rc.center)
				}
				p.Delay(rc.masterUpdate)
				switch {
				case elastic:
					centerElasticUpdate(rc.center, req.payload, before, cfg.LR, cfg.Rho)
				case momentum:
					for k := range rc.center {
						velocity[k] = cfg.Momentum*velocity[k] - cfg.LR*req.payload[k]
						rc.center[k] += velocity[k]
					}
				default:
					tensor.AXPY(-cfg.LR, req.payload, rc.center) // W̄ ← W̄ − η·∆W
				}
				rc.updates++
				if cfg.EvalEvery > 0 && rc.updates%int64(cfg.EvalEvery) == 0 {
					rc.recordPoint(int(rc.updates), p.Now(), req.loss)
				}
				rc.sendCenter(p, topo, j, down[j], rep)
				// Lands before the worker reads it: the simulator is
				// cooperative and this process has not yielded since delivery.
				rep.active = p.Now() - t0
			},
			worker: func(i int, st *step) servedWorker {
				w := rc.workers[i]
				r := servedWorker{name: fmt.Sprintf("worker%d", i)}
				compute := rc.wholeGradient(w)
				if elastic {
					// push → compute → pull: the round trip overlaps the next
					// gradient for real as well as on the clock (the math runs on
					// the par pool while this process waits). Config.Overlap adds
					// nothing — the payload is weights, ready before compute.
					snap := make([]float32, n) // one upload snapshot per stream, as above
					r.step = func(st *step) bool {
						wire := snapshot(upW[i], w.net.Params, snap)
						topo.SendModel(st.p, i, master, tagPush, pushMsg{loss: w.lastLoss, payload: snap}, rc.plan, wire)
						st.chargeExposed(cat, st.p.Now(), 0) // the upload blocks the worker
						compute(st)
						rep := pull(st, topo, cat)
						if rep.stop {
							return false
						}
						if momentum {
							w.momentumElasticLocal(cfg.LR, cfg.Momentum, cfg.Rho, rep.center)
						} else {
							w.elasticLocal(cfg.LR, cfg.Rho, rep.center)
						}
						st.spend(CatGPUUpdate, rc.workerUpdate)
						return true
					}
					return r
				}
				var crew *bucketCrew
				if cfg.Overlap {
					// The streaming upload: one wire charge per gradient bucket
					// forks as the backward emits layers — one at a time, a
					// worker's host uplink is a single DMA engine — so most of
					// the upload hides under the tail of backprop.
					crew = newBucketCrew(env, r.name, 1)
					var wires []int64
					at := -1
					compute = rc.streamedGradient(stream, w, func(b int, bk comm.Bucket) {
						if at != st.t { // the whole gradient is final at the first bucket-ready instant
							wires, at = stream.bz.SplitWire(w.quantizeGrads(upG[i])), st.t
						}
						sub := stream.bz.SubPlan(bk)
						crew.fork(fmt.Sprintf("up%d.%d.%d", i, st.t, b), func(bp *sim.Proc) {
							topo.DelayModel(bp, i, master, sub, wires[b])
						})
					}, nil)
				}
				// compute → push → pull: the worker idles for the round trip.
				r.step = func(st *step) bool {
					compute(st)
					req := pushMsg{loss: st.loss, payload: w.net.Grads}
					if crew != nil {
						// Upload seconds beyond the walk's end are exposed; the
						// logical request then arrives as a zero-size control
						// message whose bytes were paid bucket by bucket.
						active := crew.wait(st.p)
						st.chargeExposed(cat, st.p.Now(), active)
						topo.Send(st.p, i, master, tagPush, req, 0)
					} else {
						topo.SendModel(st.p, i, master, tagPush, req, rc.plan, w.quantizeGrads(upG[i]))
					}
					rep := pull(st, topo, cat)
					if rep.stop {
						return false
					}
					copy(w.net.Params, rep.center)
					return true
				}
				return r
			}}
	})
}
