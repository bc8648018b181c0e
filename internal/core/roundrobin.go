package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
)

// OriginalEASGDSerial is Algorithm 1 of the paper with no overlap (the
// "Original EASGD*" row of Table 3): per iteration the master interacts
// with exactly one GPU, and every step — data copy, center-weight download,
// forward/backward, local-weight upload, both updates — sits on the
// master's critical path. Communication is ordered by rank (round-robin),
// so only one GPU computes at a time.
func OriginalEASGDSerial(cfg Config) (Result, error) {
	return roundRobin(cfg, "original-easgd*", false)
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
func OriginalEASGD(cfg Config) (Result, error) { return roundRobin(cfg, "original-easgd", true) }

// roundRobin builds the two round-robin rows of the served frame (served.go):
// turns arrive in rank order, a turn is data copy + center download, and the
// turn's completion is collected at once (serial) or just before that rank's
// next turn, G turns later, so its compute hides behind the other workers'
// exchanges (overlapped). The account is the master's clock: it drives every
// transfer, its wait for a completion is exposed compute, and a worker's
// fault stall reaches it as that wait.
func roundRobin(cfg Config, name string, overlapped bool) (Result, error) {
	return runRow(name, cfg, func(rc *runContext, env *sim.Env) frame {
		cfg := rc.cfg
		const cat = CatCPUGPUParam
		g, n := cfg.Workers, len(rc.center)
		topo := cfg.Platform.topology(env, g, true)
		master := topo.Host()
		// Both directions carry weights: delta codecs per directed stream.
		up, down := perWorker(cfg, quant.NewDeltaCodec, n), perWorker(cfg, quant.NewDeltaCodec, n)
		stream := rc.newStream(rc.plan, nil)
		nb := stream.bz.NumBuckets()
		done := make([]*sim.Queue, g)
		for j := range done {
			done[j] = sim.NewQueue(env, fmt.Sprintf("done%d", j))
		}
		pending := make([]bool, g)
		turns := 0
		// collect uploads W_j to the CPU (line 12): a master-driven pull over
		// j's host link — per gradient bucket under the streaming pipeline
		// (each pull starts the moment its bucket's layers are ready,
		// overlapping the worker's remaining backward), in one piece otherwise
		// — then applies line 14, W̄ ← W̄ + ηρ(W_j − W̄), with the pre-update W_j.
		collect := func(ms *step, j int) {
			var c pushMsg
			for c.payload == nil { // the weights ride the last piece
				t0 := ms.p.Now()
				c = ms.p.Recv(done[j]).(pushMsg)
				ms.charge(CatForwardBackward, ms.p.Now()-t0) // exposed compute = wait time
				plan := rc.plan
				if cfg.Overlap {
					plan = stream.bz.SubPlan(stream.buckets[c.bucket])
				}
				t0 = ms.p.Now()
				topo.DelayModel(ms.p, j, master, plan, c.wire)
				ms.charge(cat, ms.p.Now()-t0)
			}
			centerElasticUpdate(rc.center, c.payload, rc.center, cfg.LR, cfg.Rho)
			ms.spend(CatCPUUpdate, rc.masterUpdate)
			rc.updates++
			pending[j] = false
		}
		return served{topo: topo, root: master, cat: cat,
			arrive: func(ms *step, t int) int {
				j := t % g
				if pending[j] {
					collect(ms, j)
				}
				return j
			},
			serve: func(ms *step, _ *sim.Proc, j int) {
				// Lines 8-9: pick b samples, async copy to GPU j.
				ms.spend(CatCPUGPUData, rc.dataXfer)
				// Line 10: send W̄ down — a fresh copy per turn. Worker j reads
				// it after its compute, and under the streaming pipeline its
				// last completion can precede the end of its backward walk
				// (a model whose first layers carry no parameters), so the
				// master may reach j's next turn before j has consumed this one.
				t0 := ms.p.Now()
				rc.sendCenter(ms.p, topo, j, down[j], &pullMsg{center: make([]float32, n)})
				ms.charge(cat, ms.p.Now()-t0)
				if overlapped {
					pending[j] = true
				} else {
					collect(ms, j)
				}
				turns++
				if cfg.EvalEvery > 0 && turns%cfg.EvalEvery == 0 {
					rc.recordPoint(turns, ms.p.Now(), rc.workers[j].lastLoss)
				}
			},
			// Workers: wait for the center, run one real minibatch
			// forward/backward, post the pre-update weights, then apply Eq. (1)
			// locally. In the overlapped schedule several workers' compute
			// windows coincide and their gradient math genuinely overlaps on the
			// par pool.
			worker: func(j int, st *step) servedWorker {
				w, up := rc.workers[j], up[j]
				// One upload snapshot per worker: the master has folded it into
				// W̄ (collect) before it starts the turn that lets j write the
				// next one.
				snap := make([]float32, n)
				var cmd *pullMsg
				compute := rc.wholeGradient(w)
				post := func(st *step) {
					done[j].Send(pushMsg{wire: snapshot(up, w.net.Params, snap), payload: snap, loss: st.loss})
				}
				if cfg.Overlap {
					// Streaming: one free completion per gradient-ready instant;
					// the snapshot (identical to the monolithic one — Params do
					// not change during compute) and the loss ride the last.
					var wires []int64
					at, emitted := -1, 0
					compute = rc.streamedGradient(stream, w, func(b int, bk comm.Bucket) {
						if at != st.t {
							wires, at, emitted = stream.bz.SplitWire(snapshot(up, w.net.Params, snap)), st.t, 0
						}
						c := pushMsg{wire: wires[b], bucket: b}
						if emitted++; emitted == nb {
							c.payload, c.loss = snap, w.lastLoss
						}
						done[j].Send(c)
					}, nil)
					post = idle
				}
				return servedWorker{name: fmt.Sprintf("gpu%d", j),
					await: func(st *step) bool {
						cmd = pull(st, topo, cat)
						return !cmd.stop
					},
					step: func(st *step) bool {
						compute(st)
						post(st)
						w.elasticLocal(cfg.LR, cfg.Rho, cmd.center)
						st.spend(CatGPUUpdate, rc.workerUpdate)
						return true
					}}
			}}
	})
}
