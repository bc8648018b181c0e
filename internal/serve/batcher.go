package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"scaledl/internal/nn"
)

// The admission-queue outcomes, distinguished so the HTTP layer can map
// them to status codes (429, 504, 503) and load generators can count them
// without string matching.
var (
	// ErrShed rejects a request because the admission queue is at
	// QueueBound — backpressure instead of unbounded latency.
	ErrShed = errors.New("serve: overloaded, request shed")
	// ErrDeadline rejects a request whose deadline passed before its batch
	// ran; no compute is spent on it.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrDraining rejects a request that arrived after Drain.
	ErrDraining = errors.New("serve: draining")
)

// BatchConfig tunes the micro-batcher.
type BatchConfig struct {
	// MaxBatch is the coalescing limit: a batch launches as soon as it has
	// this many requests. Default 32.
	MaxBatch int
	// MaxDelay bounds how long the first request of a batch waits for
	// company before the batch launches anyway. Default 2ms.
	MaxDelay time.Duration
	// QueueBound caps the admission queue; a request arriving with the
	// queue full is shed (ErrShed). Default 4×MaxBatch.
	QueueBound int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 4 * c.MaxBatch
	}
	return c
}

// request is the pooled envelope one Do call rides through the queue. The
// done channel is buffered and owned by the envelope for its lifetime, so
// the dispatcher's reply never blocks and nothing is allocated per call.
type request struct {
	in       []float32
	out      []float32
	deadline time.Time
	done     chan error
}

// Batcher coalesces concurrent single-sample Do calls into batched
// forward passes through one dispatcher goroutine (which also serializes
// access to the model's layer buffers — nn.Model is not concurrency-safe
// by itself). See the package comment for the admission, deadline, shed
// and drain semantics and the zero-alloc/bit-identity contracts.
type Batcher struct {
	model        *nn.Model
	cfg          BatchConfig
	dim, classes int

	queue chan *request

	// mu guards the draining flag against racing enqueues: Do sends while
	// read-locked, Drain flips the flag write-locked, so once Drain holds
	// the lock no further request can slip in behind the sentinel.
	mu       sync.RWMutex
	draining bool

	freeMu sync.Mutex
	free   []*request

	// dispatcher-owned batch state, preallocated at MaxBatch
	batchIn  []float32
	batchOut []float32
	live     []*request

	sentinel request
	drained  chan struct{}
	stats    stats

	// onBatchStart, when set before the first request, runs at the top of
	// every runBatch on the dispatcher goroutine. It is a test seam: overload
	// tests park the dispatcher here to make queue overflow deterministic
	// instead of racing a flood against the forward pass.
	onBatchStart func()
}

// NewBatcher starts a batcher (and its dispatcher goroutine) for the
// model. It preallocates every buffer the steady state needs, including
// warming the model's layer buffers with one MaxBatch forward, so the hot
// path never allocates.
func NewBatcher(model *nn.Model, cfg BatchConfig) (*Batcher, error) {
	if model == nil {
		return nil, errors.New("serve: nil model")
	}
	cfg = cfg.withDefaults()
	b := &Batcher{
		model:    model,
		cfg:      cfg,
		dim:      model.InputDim(),
		classes:  model.Classes(),
		queue:    make(chan *request, cfg.QueueBound),
		batchIn:  make([]float32, cfg.MaxBatch*model.InputDim()),
		batchOut: make([]float32, cfg.MaxBatch*model.Classes()),
		live:     make([]*request, 0, cfg.MaxBatch),
		drained:  make(chan struct{}),
	}
	b.stats.init(cfg.MaxBatch)
	b.free = make([]*request, 0, cfg.QueueBound+cfg.MaxBatch)
	for i := 0; i < cfg.QueueBound+cfg.MaxBatch; i++ {
		b.free = append(b.free, &request{done: make(chan error, 1)})
	}
	// Warm the net's internal buffers at the largest batch so the first
	// real batches don't grow them.
	if err := model.PredictInto(b.batchIn, cfg.MaxBatch, b.batchOut); err != nil {
		return nil, fmt.Errorf("serve: model rejects batch forward: %w", err)
	}
	go b.dispatch()
	return b, nil
}

// Config returns the effective (defaulted) configuration.
func (b *Batcher) Config() BatchConfig { return b.cfg }

// Do submits one sample (len InputDim) and blocks until its logits are in
// out (len Classes) or the request is rejected: ErrShed on a full queue,
// ErrDeadline if deadline (zero = none) passes before its batch runs,
// ErrDraining after Drain. Safe for concurrent use; allocation-free.
func (b *Batcher) Do(in, out []float32, deadline time.Time) error {
	if len(in) != b.dim || len(out) != b.classes {
		return errBadShape
	}
	b.stats.accepted.Add(1)
	if !deadline.IsZero() && time.Now().After(deadline) {
		b.stats.expired.Add(1)
		return ErrDeadline
	}
	req := b.getReq()
	req.in, req.out, req.deadline = in, out, deadline
	b.mu.RLock()
	if b.draining {
		b.mu.RUnlock()
		b.putReq(req)
		return ErrDraining
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.putReq(req)
		b.stats.shed.Add(1)
		return ErrShed
	}
	err := <-req.done
	b.putReq(req)
	return err
}

var errBadShape = errors.New("serve: input/output length does not match the model")

// Drain stops admission, lets the dispatcher finish every request already
// in the queue (including any batch in flight), and returns once the
// queue is empty and answered. Idempotent; concurrent callers all block
// until the drain completes.
func (b *Batcher) Drain() {
	b.mu.Lock()
	first := !b.draining
	b.draining = true
	b.mu.Unlock()
	if first {
		// The write lock above waited out every in-flight enqueue, and no
		// new one can pass the flag — the sentinel is the queue's last item.
		b.queue <- &b.sentinel
	}
	<-b.drained
}

// Draining reports whether Drain has been called.
func (b *Batcher) Draining() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.draining
}

func (b *Batcher) getReq() *request {
	b.freeMu.Lock()
	n := len(b.free)
	if n == 0 {
		b.freeMu.Unlock()
		// More concurrent callers than queue slots + one batch: the excess
		// would have been shed anyway, but stay correct for them.
		return &request{done: make(chan error, 1)}
	}
	req := b.free[n-1]
	b.free = b.free[:n-1]
	b.freeMu.Unlock()
	return req
}

func (b *Batcher) putReq(req *request) {
	req.in, req.out = nil, nil
	b.freeMu.Lock()
	if len(b.free) < cap(b.free) {
		b.free = append(b.free, req)
	}
	b.freeMu.Unlock()
}

// dispatch is the single consumer: it opens a batch on the first arrival,
// tops it up until MaxBatch or MaxDelay, runs one batched forward, and
// fans the logit rows back out.
func (b *Batcher) dispatch() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	stopping := false
	for !stopping {
		req := <-b.queue
		if req == &b.sentinel {
			break
		}
		b.live = append(b.live[:0], req)
		timer.Reset(b.cfg.MaxDelay)
		fired := false
	fill:
		for len(b.live) < b.cfg.MaxBatch {
			select {
			case r := <-b.queue:
				if r == &b.sentinel {
					stopping = true
					break fill
				}
				b.live = append(b.live, r)
			case <-timer.C:
				fired = true
				break fill
			}
		}
		if !fired && !timer.Stop() {
			<-timer.C
		}
		b.runBatch()
	}
	close(b.drained)
}

// runBatch executes the collected batch: expired requests are answered
// ErrDeadline without touching the model, the rest share one forward.
func (b *Batcher) runBatch() {
	if b.onBatchStart != nil {
		b.onBatchStart()
	}
	now := time.Now()
	n := 0
	for _, r := range b.live {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			b.stats.expired.Add(1)
			r.done <- ErrDeadline
			continue
		}
		copy(b.batchIn[n*b.dim:(n+1)*b.dim], r.in)
		b.live[n] = r
		n++
	}
	if n == 0 {
		return
	}
	err := b.model.PredictInto(b.batchIn[:n*b.dim], n, b.batchOut[:n*b.classes])
	if err == nil {
		// Before the replies: a caller that has its answer is already counted.
		b.stats.record(n)
	}
	for i := 0; i < n; i++ {
		r := b.live[i]
		if err == nil {
			copy(r.out, b.batchOut[i*b.classes:(i+1)*b.classes])
		}
		r.done <- err
	}
}
