package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"scaledl"
	"scaledl/internal/serve"
)

const (
	serveBodies   = 64
	serveMaxBatch = 8
	serveMaxDelay = time.Millisecond
	// serveQueueBound is far above what either workload keeps waiting, so a
	// host stall shows as latency and never as a refused request.
	serveQueueBound = 1024
	serveWarmup     = 200
	// tailWindow and windowRank define the serving tail. The pass is cut
	// into quarter-second windows by due time, and op_tail_ms and ok_share
	// describe the window that three quarters of the windows are better
	// than. A shared host deschedules the VM for 50-300 ms several times a
	// minute (the generator's own lateness shows it), and in an open loop
	// every request due in that time is late: over ten runs of unchanged
	// code the whole-pass p99 at 600 req/s ranged from 7.2 to 178 ms, a
	// spread of 239 %, and from 6.9 to 329 ms an hour later, where this
	// statistic stayed within 4-13 %. (Ranking the windows at 90 % instead
	// gave 7, 19 and 8 % over three such sets: too close to the bound.) A stall
	// ruins one or two of a pass's 72 windows; whatever the program does to
	// more than a quarter of them - a periodic GC pause, a batch-window
	// hiccup, a lock convoy - shows.
	tailWindow = 250 * time.Millisecond
	windowRank = 75
	// sloLimit is the latency limit of the serving path: a request that
	// fails, is refused, is wrong or finishes later than this after it was
	// due misses the objective.
	sloLimit = 10 * time.Millisecond
)

// ladderRates are the fixed open-loop rates the traced pass steps through
// to find the highest one that still meets the latency objective.
var ladderRates = []float64{300, 600, 1200, 1800, 2400}

// serveSpec fixes one serving workload: an open loop at a rate, or a
// closed loop with a number of waiting callers.
type serveSpec struct {
	rate    float64
	callers int
}

var serveSpecs = map[string]serveSpec{
	"serve_open_r600":  {rate: 600},
	"serve_closed_c16": {callers: 16},
}

// serveRun is a set-up serving workload: a LeNet trained for a few
// iterations, snapshotted and loaded twice — one copy behind the server,
// one kept aside as the batch-of-1 reference every response is compared
// with bit for bit.
type serveRun struct {
	spec    serveSpec
	seed    int64
	srv     *serve.Server
	handler http.Handler
	ref     *scaledl.Model
	url     *url.URL
	inputs  [][]float32
	bodies  [][]byte
	want    [][]float32 // reference logits per body
	wantRaw [][]byte    // the response the current encoder gives them (fast path)
	writers sync.Pool
	saveNs  float64
	loadNs  float64
}

// predictBody and predictReply mirror the handler's wire format.
type predictBody struct {
	Input []float32 `json:"input"`
}

type predictReply struct {
	Argmax int       `json:"argmax"`
	Logits []float32 `json:"logits"`
}

func setupServe(spec serveSpec, seed int64) (*serveRun, error) {
	s := &serveRun{spec: spec, seed: seed, url: &url.URL{Path: "/v1/predict"}}
	s.writers.New = func() any { return &respWriter{hdr: http.Header{}} }
	train, test := scaledl.SyntheticMNIST(seed, 256, serveBodies)
	res, err := scaledl.Train("sync-easgd3", scaledl.Config{
		Def: scaledl.LeNet(mnistShape, 10), Train: train, Test: test,
		Workers: 2, Batch: 16, LR: 0.05, Iterations: 2, Seed: seed,
		Platform: scaledl.DefaultGPUPlatform(true),
	})
	if err != nil {
		return nil, fmt.Errorf("training the served model: %w", err)
	}
	var snap bytes.Buffer
	t := time.Now()
	if err := res.Model().Save(&snap); err != nil {
		return nil, fmt.Errorf("saving the snapshot: %w", err)
	}
	s.saveNs = float64(time.Since(t))
	t = time.Now()
	served, err := scaledl.LoadModel(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("loading the snapshot: %w", err)
	}
	s.loadNs = float64(time.Since(t))
	if s.ref, err = scaledl.LoadModel(bytes.NewReader(snap.Bytes())); err != nil {
		return nil, fmt.Errorf("loading the reference copy: %w", err)
	}
	dim := test.Spec.SampleDim()
	for i := 0; i < serveBodies; i++ {
		in := test.Images[i*dim : (i+1)*dim]
		body, err := json.Marshal(predictBody{Input: in})
		if err != nil {
			return nil, err
		}
		want := make([]float32, s.ref.Classes())
		if err := s.ref.PredictInto(in, 1, want); err != nil {
			return nil, fmt.Errorf("reference forward: %w", err)
		}
		argmax := 0
		for k, v := range want {
			if v > want[argmax] {
				argmax = k
			}
		}
		raw, _ := json.Marshal(predictReply{Argmax: argmax, Logits: want})
		s.inputs = append(s.inputs, in)
		s.bodies = append(s.bodies, body)
		s.want = append(s.want, want)
		s.wantRaw = append(s.wantRaw, append(raw, '\n'))
	}
	s.srv, err = serve.NewServer(served, serve.Config{
		Batch: serve.BatchConfig{MaxBatch: serveMaxBatch, MaxDelay: serveMaxDelay, QueueBound: serveQueueBound},
	})
	if err != nil {
		return nil, err
	}
	s.handler = s.srv.Handler()
	_, warm := runClosed(s, serveMaxBatch, time.Hour, seed, serveBodies, serveWarmup)
	for _, r := range warm {
		if !r.ok {
			s.close()
			return nil, fmt.Errorf("warm-up request for body %d failed", r.body)
		}
	}
	return s, nil
}

// close drains the server, which stops its dispatcher goroutine.
func (s *serveRun) close() { s.srv.Drain() }

// respWriter is the benchmark's http.ResponseWriter: it keeps the status
// and the body in memory, with no socket behind it.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// send drives one request through the server's HTTP handler in process.
func (s *serveRun) send(body int) (verify func() bool) {
	w := s.writers.Get().(*respWriter)
	req := &http.Request{
		Method: http.MethodPost, URL: s.url, Host: "benchmark",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(s.bodies[body])),
		ContentLength: int64(len(s.bodies[body])),
	}
	s.handler.ServeHTTP(w, req)
	return func() bool {
		ok := s.verify(body, w)
		clear(w.hdr)
		w.status = 0
		w.body.Reset()
		s.writers.Put(w)
		return ok
	}
}

// verify holds the batch-of-N ≡ N×batch-of-1 contract from outside: the
// response must be a 200 whose logits equal the reference copy's
// batch-of-1 forward bit for bit. Byte equality with the pre-encoded
// reference is the fast path; any other encoding is decoded and compared.
func (s *serveRun) verify(body int, w *respWriter) bool {
	if w.status != http.StatusOK {
		return false
	}
	if bytes.Equal(w.body.Bytes(), s.wantRaw[body]) {
		return true
	}
	var got predictReply
	if err := json.Unmarshal(w.body.Bytes(), &got); err != nil {
		return false
	}
	return equalBits(got.Logits, s.want[body])
}

// load runs the workload's own traffic for dur.
func (s *serveRun) load(dur time.Duration, seed int64) (start time.Time, recs []reqRecord) {
	if s.spec.rate > 0 {
		return runOpen(s, schedule(seed, s.spec.rate, dur, serveBodies))
	}
	return runClosed(s, s.spec.callers, dur, seed, serveBodies, 0)
}

// latenciesMs returns the sorted latencies of recs and the failure count.
func latenciesMs(recs []reqRecord) (sorted []float64, failed int) {
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = float64(r.latency()) / 1e6
		if !r.ok {
			failed++
		}
	}
	return sortedCopy(ms), failed
}

func (s *serveRun) timed(seconds float64) *outcome {
	o := newOutcome()
	dur := time.Duration(seconds * float64(time.Second))
	m := startMem()
	_, recs := s.load(dur, s.seed)
	m.stop()
	lat, failed := latenciesMs(recs)
	n := len(recs)
	o.attempted, o.failed = n, failed
	o.check("responses equal the batch-of-1 reference bit for bit", failed == 0, "%d of %d failed", failed, n)
	// Independent users hold the server to the limit; callers that wait
	// slow down instead, and their latency is the metric.
	var limit time.Duration
	if s.spec.rate > 0 {
		limit = sloLimit
	}
	tail, ok, perWindow := worstWindows(recs, dur, limit)
	o.set("op_p50_ms", percentile(lat, 50), n)
	o.set("op_tail_ms", tail, perWindow)
	o.set("ok_share", ok, perWindow)
	o.set("cpu_ms_per_unit", float64(m.CPU)/1e6/float64(n-failed), n)
	o.set("alloc_kb_per_unit", m.Bytes/1024/float64(n-failed), n)
	o.note("%.6g correct responses/s; whole pass: p90 %.4g p95 %.4g p99 %.4g p99.9 %.4g ms, %.4g%% within %v of due; op_tail_ms is p%g of a window of %d",
		float64(n-failed)/seconds, percentile(lat, 90), percentile(lat, 95), percentile(lat, 99), percentile(lat, 99.9),
		100*(1-sloMissShare(recs)), sloLimit, tailRung(perWindow), perWindow)
	return o
}

// worstWindows cuts the pass into tailWindow slices by due time and
// describes the slice that windowRank % of them are better than: the tail
// percentile (the highest rung a slice's sample supports) and the share of
// requests answered correctly and, with a limit, within it of their due
// time. perWindow is the typical sample count of a slice.
func worstWindows(recs []reqRecord, dur, limit time.Duration) (tailMs, okShare float64, perWindow int) {
	n := int(dur / tailWindow)
	if n < 1 {
		n = 1
	}
	groups := make([][]reqRecord, n)
	for _, r := range recs {
		if w := int(r.due / tailWindow); w < n {
			groups[w] = append(groups[w], r)
		}
	}
	var tails, oks, sizes []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		lat, _ := latenciesMs(g)
		good := 0
		for _, r := range g {
			if r.ok && (limit == 0 || r.latency() <= limit) {
				good++
			}
		}
		tails = append(tails, percentile(lat, tailRung(len(g))))
		oks = append(oks, float64(good)/float64(len(g)))
		sizes = append(sizes, float64(len(g)))
	}
	return percentile(sortedCopy(tails), windowRank), percentile(sortedCopy(oks), 100-windowRank), int(median(sizes))
}

// sloMissShare is the share of requests sent that failed or finished
// later than the limit after they were due.
func sloMissShare(recs []reqRecord) float64 {
	miss := 0
	for _, r := range recs {
		if !r.ok || r.latency() > sloLimit {
			miss++
		}
	}
	return float64(miss) / float64(len(recs))
}

// backlogGrew reports whether latency in the last third of the pass is
// more than twice (plus 1 ms) that of the first third: the queue did not
// reach a steady state at this rate.
func backlogGrew(recs []reqRecord) bool {
	third := len(recs) / 3
	if third < 10 {
		return false
	}
	head, _ := latenciesMs(recs[:third])
	tail, _ := latenciesMs(recs[len(recs)-third:])
	return percentile(tail, 50) > 2*percentile(head, 50)+1
}

// traced is the per-layer pass of a serving workload: solo calls that
// split one request into forward, batcher and handler shares; the
// workload's own load with a span per request and the batcher's counters
// around it; then the rate ladder.
func (s *serveRun) traced(seconds float64, rec *recorder) *outcome {
	o := newOutcome()
	budget := shareOf(seconds)

	// Solo: one request at a time, so nothing waits for anything else.
	out := make([]float32, s.ref.Classes())
	b1, n1 := timeLoop(budget(0.03), 20, func() { _ = s.ref.PredictInto(s.inputs[0], 1, out) })
	batchIn := make([]float32, 0, serveMaxBatch*len(s.inputs[0]))
	for i := 0; i < serveMaxBatch; i++ {
		batchIn = append(batchIn, s.inputs[i]...)
	}
	batchOut := make([]float32, serveMaxBatch*s.ref.Classes())
	b8, n8 := timeLoop(budget(0.03), 20, func() { _ = s.ref.PredictInto(batchIn, serveMaxBatch, batchOut) })
	o.set("nn.predict_b1_ns", b1, n1)
	o.set("nn.predict_b8_ns", b8, n8)
	o.set("nn.save_ns", s.saveNs, 1)
	o.set("nn.load_ns", s.loadNs, 1)
	var handlerUs, doUs []float64
	for start := time.Now(); time.Since(start) < budget(0.05) || len(handlerUs) < 20; {
		body := len(handlerUs) % serveBodies
		t0 := time.Now()
		verify := s.send(body)
		t1 := time.Now()
		o.attempted++
		if !verify() {
			o.failed++
		}
		rec.add("serve.handler_solo", t0, t1, -1, len(handlerUs))
		handlerUs = append(handlerUs, float64(t1.Sub(t0))/1e3)
	}
	for start := time.Now(); time.Since(start) < budget(0.05) || len(doUs) < 20; {
		body := len(doUs) % serveBodies
		t0 := time.Now()
		err := s.srv.Batcher().Do(s.inputs[body], out, time.Time{})
		t1 := time.Now()
		o.attempted++
		if err != nil || !equalBits(out, s.want[body]) {
			o.failed++
		}
		rec.add("serve.do_solo", t0, t1, -1, len(doUs))
		doUs = append(doUs, float64(t1.Sub(t0))/1e3)
	}
	handlerSolo, doSolo := median(handlerUs), median(doUs)
	o.set("serve.handler_solo_us", handlerSolo, len(handlerUs))
	o.set("serve.do_solo_us", doSolo, len(doUs))
	o.set("serve.handler_self_us", handlerSolo-doSolo, len(handlerUs))
	o.set("serve.batcher_self_us", doSolo-b1/1e3, len(doUs))
	// handler_self and batcher_self are differences, so they add up to
	// handler_solo by construction; what can disagree is the batcher's share
	// against what it is made of: a solo request waits out the whole batch
	// window, then runs a batch-of-1 forward. What is left over is timer
	// slack and two goroutine hand-offs, an absolute cost and not a share.
	model := float64(serveMaxDelay)/1e3 + b1/1e3
	o.recon("do_solo is batch window + predict_b1 + at most 0.75 ms of hand-off", doSolo >= 0.9*model && doSolo-model <= 750,
		"%.1f vs %.1f us", doSolo, model)

	// The workload's own load, with the batcher's counters and the
	// runtime's allocation counters read around it.
	before := s.srv.Batcher().Stats()
	runtime.GC()
	m := startMem()
	t0, recs := s.load(budget(0.35), s.seed+1)
	m.stop()
	after := s.srv.Batcher().Stats()
	tSpans := time.Now()
	for i, r := range recs {
		root := rec.add("request", t0.Add(r.due), t0.Add(r.done), -1, i)
		rec.add("bench.gen_late", t0.Add(r.due), t0.Add(r.sent), root, i)
		rec.add("serve.handler", t0.Add(r.sent), t0.Add(r.done), root, i)
	}
	o.set("bench.trace_overhead_share", time.Since(tSpans).Seconds()/m.Wall.Seconds(), len(recs))
	lat, failed := latenciesMs(recs)
	n := len(recs)
	o.attempted += n
	o.failed += failed
	late := make([]float64, n)
	for i, r := range recs {
		late[i] = float64(r.late()) / 1e6
	}
	reqs := float64(after.Requests - before.Requests)
	o.set("serve.mean_batch", float64(after.Served-before.Served)/float64(after.Batches-before.Batches), n)
	o.set("serve.shed_share", float64(after.Shed-before.Shed)/reqs, n)
	o.set("serve.expired_share", float64(after.Expired-before.Expired)/reqs, n)
	o.set("serve.allocs_per_req", m.Mallocs/float64(n), n)
	o.set("serve.alloc_kb_per_req", m.Bytes/1024/float64(n), n)
	o.set("serve.wait_p50_ms", percentile(lat, 50)-handlerSolo/1e3, n)
	o.set("serve.p999_ms", percentile(lat, 99.9), n)
	o.set("serve.slo_miss_share", sloMissShare(recs), n)
	o.set("bench.gen_late_p99_ms", percentile(sortedCopy(late), 99), n)

	// The rate ladder: the highest fixed rate at which at most 1 % of the
	// requests sent miss the objective and the backlog does not grow. The
	// upper rungs overload the server on purpose, so their refusals count
	// as misses of the objective, not as failed operations of the run.
	best := 0.0
	step := budget(0.4) / time.Duration(len(ladderRates))
	for i, rate := range ladderRates {
		_, rr := runOpen(s, schedule(s.seed+10+int64(i), rate, step, serveBodies))
		if sloMissShare(rr) <= 0.01 && !backlogGrew(rr) {
			best = rate
		}
	}
	o.set("serve.max_rate_in_slo", best, len(ladderRates))
	probePar(o, budget(0.01))
	o.check("responses equal the batch-of-1 reference bit for bit", o.failed == 0, "%d of %d failed", o.failed, o.attempted)
	return o
}

func equalBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
