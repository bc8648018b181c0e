// Package scaledl is a from-scratch Go reproduction of "Scaling Deep
// Learning on GPU and Knights Landing clusters" (You, Buluç, Demmel — SC'17,
// DOI 10.1145/3126908.3126912).
//
// The paper redesigns Elastic Averaging SGD (EASGD) for HPC systems. Its
// original round-robin master talks to one worker at a time in rank order —
// Θ(P) communication per sweep — which wastes an HPC cluster's fast
// interconnect. The paper contributes, in increasing strength:
//
//   - Async EASGD: round-robin replaced with first-come-first-served
//     parameter-server scheduling, with the worker's gradient overlapping
//     the round trip.
//   - Async MEASGD: momentum added to the local update.
//   - Hogwild EASGD: the master's lock removed; concurrent lock-free
//     elastic updates.
//   - Sync EASGD 1/2/3: a deterministic synchronous variant built on
//     Θ(log P) tree collectives, with three algorithm/system co-design
//     steps: tree reduction plus the §5.2 packed single-buffer parameter
//     layout; the center weight moved onto a GPU so parameter traffic rides
//     peer-to-peer DMA; and communication overlapped with computation.
//     Sync EASGD3 cuts communication from 87% to 14% of iteration time and
//     is 5.3× faster than the original EASGD at equal accuracy.
//   - A Knights Landing chip-partitioning scheme (§6.2) that divides the
//     chip into NUMA-local groups with replicated weights and data held in
//     MCDRAM — 3.3× faster to equal accuracy, bounded at 16 partitions by
//     the MCDRAM fit rule.
//
// # What this module provides
//
// Everything the paper's evaluation needs is implemented from scratch on
// the Go standard library:
//
//   - a dense float32 tensor/BLAS substrate — every matrix product runs
//     through one BLIS-style packed, register-tiled GEMM engine
//     (MC/KC/NC cache blocking, MR×NR micro-kernel, SSE2 assembly on
//     amd64, transposition absorbed at pack time, zero allocations in
//     steady state; see internal/tensor and the README's measured table)
//     — and a real neural-network framework (conv/pool/dense/activation/
//     LRN/dropout layers, packed contiguous parameter buffers, Xavier
//     init, softmax cross-entropy with the bias add fused into the GEMM
//     epilogue);
//   - a model zoo: executable LeNet and CIFAR networks, plus
//     exact-dimension cost tables for AlexNet (61.0M parameters), VGG-19
//     (143.7M) and GoogleNet (7.0M);
//   - seeded synthetic MNIST/CIFAR/ImageNet-shaped datasets (the real
//     downloads are unavailable offline, so content is generated:
//     same geometry, learnable, a pure function of the seed);
//   - a deterministic discrete-event simulator with α-β network models
//     (Table 2's InfiniBand constants), GPU/PCIe and KNL/Aries hardware
//     models, MCDRAM modes and cluster modes;
//   - a message-level collective engine (internal/comm): Broadcast,
//     Reduce and AllReduce executed as simulated message waves of real
//     float32 segments over a Topology (PCIe tree with a shared-switch
//     resource, host links, fabric cliques, memory buses), under
//     selectable schedules — binomial tree, ring, recursive
//     halving/doubling, pipelined chain, linear — with packed versus
//     per-layer message plans and per-message compressed wire sizes. The
//     closed-form α-β cost functions remain as the analytic oracle: on
//     contention-free topologies the simulated collectives match them to
//     1e-9, and reduced values are bit-identical to comm.ReduceSum for
//     every schedule. Payloads are borrowed, not copied: a collective
//     moves views of its callers' buffers, and when it returns on a rank
//     no other rank still references that rank's buffer — by ordering
//     (lenders stay blocked until their bytes are consumed), not by
//     snapshotting. Only the eager chain schedule, the hierarchical
//     rooted Reduce and sufficient-factor payloads, which have no such
//     ordering, send copies. A party drives all of it through one handle,
//     comm.Endpoint: each collective comes in payload, size-only (…Size,
//     or simply a nil buffer) and bucketed …Range form, all executed by
//     one runner;
//   - hierarchical two-level clusters (comm.NewMultiLevel): per-node
//     sub-topologies (PCIe trees) composed under an inter-node fabric with
//     an optional per-node NIC concurrency bound, and hierarchical
//     collectives (comm.HierCommunicator) in the intra-reduce →
//     leader-allreduce → intra-broadcast shape, with independently
//     selectable schedules per level. The hierarchy is a second engine
//     behind the same comm.Endpoint, not a second API: the composition of
//     flat communicators hands out the handle a flat one does. Both engine
//     invariants extend to the composition: completion matches the oracle
//     (comm.HierAllReduceTime) on contention-free topologies, and the
//     intra phase gathers global-rank-tagged contribution lists so the
//     hierarchical allreduce stays bit-identical to ReduceSum for every
//     (intra, inter) schedule pair, including the bucketed Range variants
//     the streaming pipeline uses. Config.Nodes/GPUsPerNode select the
//     composed cluster for two training methods: "hier-sync-sgd" (the
//     sync-sgd row over a hierarchical endpoint — flat mathematics bit for
//     bit, Config.HierSchedule picking the fabric schedule) and
//     "hier-sync-easgd" (node-group elastic averaging, group syncs every
//     Config.TauLocal steps and fabric center syncs every
//     Config.TauGlobal);
//   - a layer-streaming backprop pipeline (the architecture of Poseidon's
//     wait-free backprop and FireCaffe's per-layer reduction trees): the
//     backward walk emits per-layer gradient-ready events
//     (nn.Net.LossAndGradStream), a comm.Bucketizer coalesces ready layers
//     into ~Config.BucketBytes buckets along plan-segment boundaries, and
//     per-bucket Range collectives run as distinct in-flight rounds, in
//     place on the replica's packed gradient buffer — so with
//     Config.Overlap on, communication hides under the tail of
//     backprop as a consequence of the dependency structure, with only the
//     exposed share charged to the time breakdown (Breakdown.HiddenComm
//     reports the hidden share) and gradient math bit-identical to the
//     monolithic path;
//   - all twelve distributed algorithms of the paper (the contributions and
//     every baseline) plus the hierarchical multi-node methods, running
//     real gradient math under simulated time. The coordinated methods —
//     Sync EASGD1/2/3, the KNL cluster's Algorithm 4, sync-sgd and the two
//     hierarchical methods — are one rank program (internal/core/step.go):
//     per step, membership → fault stall → data copy → compute → exchange
//     → update → rank-0 bookkeeping → barrier → byte attribution, each
//     written once, with three seams a method fills as a row of function
//     values. compute: the whole gradient, or the streamed backward walk.
//     exchange: the elastic-center Broadcast W̄ + Reduce ΣW (in line or
//     pre-forked beneath compute; used by Sync EASGD1/2/3, the KNL cluster
//     and hier-sync-easgd's node-group sync), the gradient allreduce
//     (dense, bucketed ranges, factor allgathers, or the partial-K
//     gather; sync-sgd and hier-sync-sgd), the group leaders' fabric
//     allreduce (hier-sync-easgd). update: Equations (1)+(2), the averaged
//     SGD step, local SGD and the elastic pull. The paper's baselines —
//     the six parameter-server methods and the two Original EASGD
//     schedules — are rows of a second, served frame in the same file (a
//     master loop with FIFO or per-arrival handler dispatch and stop
//     sentinels, unbounded worker loops, the same compute seams, a
//     push/pull seam), charged through the same root-gated helpers, so
//     Breakdown sums to SimTime for all fifteen methods. Which method
//     honors which fault or transport knob is one method × knob table
//     consulted before a run touches any process state; a refused pair is
//     a typed *UnsupportedError;
//   - an experiment harness that regenerates every table and figure of the
//     paper's evaluation (Tables 2-4, Figures 6, 8, 10-13) plus a batch-size
//     study, a co-design ablation, an overlap × bucket-size × schedule
//     ablation of the streaming pipeline, and a hierarchical-versus-flat
//     collective and training sweep on composed PCIe+fabric clusters (the
//     "hier" experiment);
//   - a batched inference server (internal/serve, cmd/scaledl-serve)
//     behind the public Model API: training's Result.Model() saves to a
//     versioned snapshot (optionally int8 post-training quantized),
//     LoadModel reloads it, and the HTTP server coalesces concurrent
//     /v1/predict requests into batched forwards with deadline-bounded
//     admission, load shedding (429 + Retry-After) and graceful drain.
//     Two contracts are pinned by tests: batching is bit-identical (a
//     batch-of-N forward equals N batch-of-1 forwards at fp32) and the
//     steady-state batching hot path is allocation-free;
//   - a CI benchmark-regression gate (cmd/benchgate) comparing fresh
//     microbenchmark runs against the checked-in BENCH_*.json baselines:
//     deterministic simulated collective times (sim_ms), GEMM GFLOPS and
//     serving req/s are gated at 15% (serving allocs/op exactly), so
//     performance drift fails the pull request instead of landing
//     silently.
//
// # Execution model
//
// Virtual time and real work are scheduled by two separate engines:
//
//   - internal/sim is a deterministic discrete-event kernel. Simulated
//     entities (GPU workers, parameter-server masters, KNL ranks, the
//     collective engine's message waves) run as goroutine-backed
//     processes; exactly one executes at any virtual instant, so the
//     *timeline* of a run is a pure function of its inputs. Communication
//     is simulated at message granularity: every collective hop pays its
//     path's α-β cost and queues on shared segments, the streaming
//     pipeline's bucket collectives genuinely run (sim.Fork, bounded
//     in-flight) beneath the backward walk — Sync EASGD3's overlap and
//     Sync SGD's hidden allreduce are its consequences — and contention
//     emerges from scheduling.
//   - internal/par is a process-wide bounded work pool (width = GOMAXPROCS
//     by default) that the *real* mathematics runs on. The paper's workers
//     are embarrassingly parallel between reductions, and the
//     implementation exploits that literally: the synchronous algorithms
//     fan their P gradient computations out with par.For; the
//     process-per-worker algorithms (async, round-robin, KNL cluster)
//     start each gradient with par.Submit, yield virtual time, and join
//     before the result is used, so the replicas' forward/backward passes
//     genuinely overlap on the host; the convolution batch fan-out and the
//     GEMM row fan-out schedule on the same pool, so nested parallelism
//     (worker × conv-chunk × GEMM-row) degrades to inline execution
//     instead of oversubscribing the machine.
//
// Parallel execution never changes results: work is assigned to fixed
// index ranges, every unit writes only index-distinct state, and all
// floating-point reductions (gradient sums, loss averages, partial-dW
// merges) happen in fixed slice order after the join. A run's Result is
// bit-identical to serial execution (par.SetSerial) at the same width,
// and the packed GEMM is stronger still: its fan-out only partitions
// output rows, so every element keeps its k-ordered summation and GEMM
// results are bit-identical across pool widths too.
//
// # Quick start
//
//	train, test := scaledl.SyntheticMNIST(1, 2048, 512)
//	cfg := scaledl.Config{
//		Def:        scaledl.TinyCNN(scaledl.Shape{C: 1, H: 28, W: 28}, 10),
//		Train:      train,
//		Test:       test,
//		Workers:    4,
//		Batch:      32,
//		LR:         0.05,
//		Iterations: 100,
//		Seed:       1,
//		Platform:   scaledl.DefaultGPUPlatform(true),
//		EvalEvery:  10,
//	}
//	res, err := scaledl.Train("sync-easgd3", cfg)
//
// The trained model then rides the serving path:
//
//	var snap bytes.Buffer
//	res.Model().Save(&snap)               // versioned snapshot
//	m, err := scaledl.LoadModel(&snap)    // reload anywhere
//	logits, err := m.Predict(input, 1)    // or serve it: cmd/scaledl-serve
//
// See the examples/ directory for runnable programs, cmd/scaledl-bench
// for the experiment runner and cmd/scaledl-serve for the inference
// server.
package scaledl
