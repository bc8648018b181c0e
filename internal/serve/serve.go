// Package serve is the inference side of the system: it takes a trained
// model (nn.Model — what training's Result.Model() returns and snapshots
// reload) and serves predictions over HTTP with dynamic micro-batching.
//
// The paper's training stack earns its throughput by batching GEMMs;
// serving earns it the same way, but the batch has to be assembled from
// concurrent single-sample requests at runtime. The Batcher is that
// assembly: an admission queue bounded by Config.QueueBound (overflow is
// shed immediately — HTTP 429 with Retry-After — so latency stays bounded
// under overload instead of growing without limit), a dispatcher that
// coalesces up to MaxBatch requests or whatever arrived within MaxDelay
// of the batch opening, per-request deadline propagation (a request whose
// deadline passed while queued is dropped without spending compute on
// it), and graceful drain (Drain stops admission, finishes everything
// already admitted, then returns — the SIGTERM path).
//
// Two contracts are pinned by tests and the BENCH_serve.json gate:
//
//   - Bit-identity: coalescing is invisible to the math. A batch-of-N
//     forward equals N independent batch-of-1 forwards exactly at fp32,
//     because every layer handles samples row-disjointly and the GEMM's
//     K-accumulation order per output row does not depend on the batch
//     dimension. Batching is purely a throughput lever.
//   - Zero allocation: the batching hot path (Do → dispatch → forward →
//     reply) allocates nothing in steady state. Request envelopes come
//     from a free list, batch tensors are preallocated at MaxBatch, and
//     the net's layer buffers are warmed at construction
//     (testing.AllocsPerRun pins 0 at par width 1; wider settings spawn
//     helper goroutines inside the GEMM and conv loops, which allocates
//     by design).
//
// The HTTP layer (Server) is deliberately thin: POST /v1/predict decodes
// one sample, rides the Batcher, returns argmax+logits; GET /v1/healthz
// and GET /v1/stats expose liveness and the batching counters. The body
// {"input":[numbers]} is parsed in one pass into pooled scratch (decode.go;
// any other body goes to encoding/json, and the two agree bit for bit):
// handlers share the processors with the dispatcher's forward pass, so what
// a request costs before it is admitted is capacity the batch does not get.
// JSON encoding allocates — only the batching core is allocation-free.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"scaledl/internal/nn"
)

// Config configures a Server.
type Config struct {
	// Batch configures the micro-batcher (see BatchConfig defaults).
	Batch BatchConfig
	// DefaultDeadline is applied to requests that carry no X-Deadline-Ms
	// header; 0 means no deadline.
	DefaultDeadline time.Duration
	// RetryAfter is the hint returned with 429 responses; 0 means 1s.
	RetryAfter time.Duration
}

// Server serves a model over HTTP through a Batcher.
type Server struct {
	model *nn.Model
	b     *Batcher
	cfg   Config
	mux   *http.ServeMux
	start time.Time
}

// NewServer builds a server (and its running Batcher) around a model.
func NewServer(model *nn.Model, cfg Config) (*Server, error) {
	b, err := NewBatcher(model, cfg.Batch)
	if err != nil {
		return nil, err
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{model: model, b: b, cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s, nil
}

// Handler returns the HTTP handler (for http.Server or tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Batcher exposes the admission queue, for in-process load generation.
func (s *Server) Batcher() *Batcher { return s.b }

// Drain stops admission and blocks until every admitted request has been
// answered — the SIGTERM path. After Drain, predict returns 503 and
// healthz reports draining.
func (s *Server) Drain() { s.b.Drain() }

type predictRequest struct {
	Input []float32 `json:"input"`
}

// scratch is what one predict request needs only until Do returns: the raw
// body and the decoded sample.
type scratch struct {
	body bytes.Buffer
	in   []float32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

type predictResponse struct {
	Argmax int       `json:"argmax"`
	Logits []float32 `json:"logits"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Do copies the sample into the batch before it answers, so the body
	// and the decoded sample can go back to the pool when this returns.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.body.Reset()
	_, err := sc.body.ReadFrom(r.Body)
	if err == nil {
		sc.in, err = decodeInput(sc.body.Bytes(), sc.in)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(sc.in) != s.model.InputDim() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("input has %d values, model wants %d", len(sc.in), s.model.InputDim()))
		return
	}
	var deadline time.Time
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, "X-Deadline-Ms must be a positive integer")
			return
		}
		deadline = time.Now().Add(time.Duration(ms) * time.Millisecond)
	} else if s.cfg.DefaultDeadline > 0 {
		deadline = time.Now().Add(s.cfg.DefaultDeadline)
	}
	out := make([]float32, s.model.Classes())
	switch err := s.b.Do(sc.in, out, deadline); err {
	case nil:
	case ErrShed:
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case ErrDraining:
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case ErrDeadline:
		writeError(w, http.StatusGatewayTimeout, err.Error())
		return
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	argmax := 0
	for i, v := range out {
		if v > out[argmax] {
			argmax = i
		}
	}
	writeJSON(w, http.StatusOK, predictResponse{Argmax: argmax, Logits: out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status    string  `json:"status"`
		Model     string  `json:"model"`
		Params    int     `json:"params"`
		Quantized bool    `json:"quantized"`
		UptimeSec float64 `json:"uptime_s"`
	}
	h := health{
		Status:    "ok",
		Model:     s.model.Def().Name,
		Params:    s.model.ParamCount(),
		Quantized: s.model.Quantized(),
		UptimeSec: time.Since(s.start).Seconds(),
	}
	code := http.StatusOK
	if s.b.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
