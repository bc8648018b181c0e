package main

import "fmt"

// metricSpec names one reported number. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// setupFloorS is the absolute floor of the set-up comparison in -sets
// mode: a set-up that moved by less than this is not a regression however
// large the share.
const setupFloorS = 0.05

// endToEnd lists what a user of the system sees, on every workload. An
// "operation" is one Train call, one sweep repetition or one request; a
// "unit" of work is one training sample, one simulated collective or one
// correct response. Throughput is not listed: on the repetition workloads
// it is the reciprocal of op_p50_ms, in the closed loop it is callers ÷
// latency and in the open loop it is the offered rate, so it would gate
// nothing the latency does not (the timed pass prints it as a note). Each
// bound is about three times the worst run-to-run spread BASELINE.json
// records for the metric over the six workloads, and never above 0.25.
// BENCHMARK.json repeats this list (a test keeps the two equal).
var endToEnd = []metricSpec{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ok_share", "share", "higher", 0.01},
	{"cpu_ms_per_unit", "ms", "lower", 0.25},
	{"alloc_kb_per_unit", "KB", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced pass's numbers, one prefix per layer of the
// stack. A workload that leaves a layer idle reports 0 for its metrics.
// Units: sim_ms is simulated (modelled-cluster) time, everything else is
// host time or a count.
var perLayer = []metricSpec{
	// internal/tensor: GEMM engine and im2col on the net's own shapes.
	{Name: "tensor.gemm_gflops", Unit: "gflops", Better: "higher"},
	{Name: "tensor.gemm_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "tensor.im2col_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "tensor.gemm_allocs", Unit: "count", Better: "lower"},
	// internal/par: the fan-out pool.
	{Name: "par.for_dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "par.width", Unit: "count", Better: "higher"},
	// internal/nn: one real training step and its layers, inference, snapshots.
	{Name: "nn.step_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.bwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.bwd_over_fwd", Unit: "ratio", Better: "lower"},
	{Name: "nn.conv_fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.conv_bwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.dense_fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.dense_bwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.pool_fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.pool_bwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.act_fwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.act_bwd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.loss_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.sgd_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.step_allocs", Unit: "count", Better: "lower"},
	{Name: "nn.step_gflops", Unit: "gflops", Better: "higher"},
	{Name: "nn.predict_b1_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.predict_b8_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.save_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.load_ns", Unit: "ns", Better: "lower"},
	// internal/data: batch sampling and synthetic generation.
	{Name: "data.next_ns", Unit: "ns", Better: "lower"},
	{Name: "data.synthetic_s", Unit: "s", Better: "lower"},
	// internal/sim: the event kernel.
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.pingpong_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.spawn_close_us_p1024", Unit: "us", Better: "lower"},
	// internal/comm: the collective engine, both clocks.
	{Name: "comm.allreduce_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.allreduce_allocs", Unit: "count", Better: "lower"},
	{Name: "comm.payload_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "comm.allreduce_sim_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "comm.bytes_per_iter", Unit: "count", Better: "lower"},
	{Name: "comm.buckets_per_iter", Unit: "count", Better: "lower"},
	{Name: "comm.exposed_ms_per_iter", Unit: "sim_ms", Better: "lower"},
	{Name: "comm.hidden_ms_per_iter", Unit: "sim_ms", Better: "higher"},
	{Name: "comm.hier1024_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.tree256_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.rhd256_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.ring256_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.knlws256_host_us", Unit: "us", Better: "lower"},
	{Name: "comm.hier1024_sim_ms", Unit: "sim_ms", Better: "lower"},
	{Name: "comm.oracle_max_rel_err", Unit: "ratio", Better: "lower"},
	{Name: "comm.sim_ms_per_sweep", Unit: "sim_ms", Better: "lower"},
	// internal/core: one Train call seen from outside, both clocks.
	{Name: "core.host_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "core.cpu_ms_per_iter", Unit: "ms", Better: "lower"},
	{Name: "core.overhead_share", Unit: "share", Better: "lower"},
	{Name: "core.nn_share", Unit: "share", Better: "higher"},
	{Name: "core.comm_share", Unit: "share", Better: "lower"},
	{Name: "core.allocs_per_iter", Unit: "count", Better: "lower"},
	{Name: "core.alloc_kb_per_iter", Unit: "KB", Better: "lower"},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_ms_per_iter", Unit: "sim_ms", Better: "lower"},
	{Name: "core.fwdbwd_sim_ms_per_iter", Unit: "sim_ms", Better: "lower"},
	{Name: "core.update_sim_ms_per_iter", Unit: "sim_ms", Better: "lower"},
	{Name: "core.data_sim_ms_per_iter", Unit: "sim_ms", Better: "lower"},
	{Name: "core.comm_ratio", Unit: "share", Better: "lower"},
	{Name: "core.iters_to_target", Unit: "count", Better: "lower"},
	{Name: "core.final_loss", Unit: "loss", Better: "lower"},
	// internal/serve: one request through the handler and the batcher.
	{Name: "serve.handler_solo_us", Unit: "us", Better: "lower"},
	{Name: "serve.do_solo_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.batcher_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.mean_batch", Unit: "count", Better: "higher"},
	{Name: "serve.shed_share", Unit: "share", Better: "lower"},
	{Name: "serve.expired_share", Unit: "share", Better: "lower"},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.alloc_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "serve.p999_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.slo_miss_share", Unit: "share", Better: "lower"},
	{Name: "serve.max_rate_in_slo", Unit: "1/s", Better: "higher"},
	// the benchmark's own instruments.
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.fail_share", Unit: "share", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// workloadSpec names a workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"train_sync_lenet", "sync-easgd3 on LeNet, P=4 b=32: GEMM and layer work dominates (nn+tensor), comm and sim nearly idle"},
	{"train_async_tiny", "async-easgd on TinyCNN, P=8 b=8: small-batch shapes where packing, ReLU and pooling outweigh the micro-kernel; point-to-point parameter-server traffic"},
	{"train_hier_overlap", "hier-sync-sgd 4x4 on LeNet, b=2, bucketed overlap: the payload collective path carries the host time and the simulated step is comm-bound"},
	{"sim_scale_sweep", "size-only collectives at P=256..1024 and the KNL weak-scaling wave: sim + comm do all the work, nn none"},
	{"serve_open_r600", "open loop, 600 req/s on the HTTP handler: about a fifth of capacity, batches stay near 1, latency is decode + batch window + solo forward + encode"},
	{"serve_closed_c16", "closed loop, 16 waiting callers: batches fill to 8, throughput bound by the batched forward and admission"},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one workload pass hands back to main.
type outcome struct {
	attempted, failed int
	values            map[string]float64 // metric name -> value
	samples           map[string]int     // metric name -> sample count behind it
	checks            []check            // correctness and reconciliation rows
	notes             []string           // printed with the results, not metrics
}

// check is one pass/fail row printed with the results. A correctness
// check that fails counts in failed and makes the run incorrect; a
// reconciliation check (recon) compares timings that should add up, and
// is reported without failing a single run, because host noise can break
// a 5 % tolerance.
type check struct {
	name   string
	recon  bool
	ok     bool
	detail string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, false, ok, fmt.Sprintf(format, args...)})
}

// op counts one operation of the pass; a non-empty failure says which of
// its checks did not hold.
func (o *outcome) op(failure string) {
	o.attempted++
	if failure != "" {
		o.failed++
		o.check("operation", false, "%s", failure)
	}
}

// verify counts one correctness check as an operation of its own and
// prints its row.
func (o *outcome) verify(name string, ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
	}
	o.check(name, ok, format, args...)
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) recon(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, true, ok, fmt.Sprintf(format, args...)})
}
