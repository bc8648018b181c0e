package core

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/nn"
	"scaledl/internal/quant"
	"scaledl/internal/sim"
)

// The exchange seams of the step frame (step.go). Every collective here is
// executed by the message-level engine in internal/comm: a broadcast is
// log2(P) synchronized waves of real point-to-point messages over the
// topology, a reduction carries the workers' actual weight segments to the
// root, and the packed-versus-per-layer gap (Figure 10) emerges from the
// per-message α each layer of an unpacked plan pays. No collective is
// charged as a precomputed scalar delay.

// elasticCenter is the EASGD exchange, written once for Sync EASGD1/2/3,
// the KNL cluster's Algorithm 4 and hier-sync-easgd's node-group sync: the
// master broadcasts W̄_t, then ΣW_j of the pre-update local weights is
// reduced back to it (the engine combines in rank order, so the sum is
// bit-identical to comm.ReduceSum). W̄_t was fixed by the previous master
// update, so with a crew its broadcast pre-forks through the bucketed
// pipeline — one message-wave process per ~BucketBytes bucket, bounded in
// flight — and runs beneath the data copy and forward/backward; the join
// exposes only the excess. That is Sync EASGD3's overlap, emerging from the
// streaming machinery rather than a hand-built max().
type elasticCenter struct {
	ep     *comm.Endpoint
	master int       // the master's rank on ep's communicator
	center []float32 // the master's W̄; nil on every other rank
	sum    []float32 // the master's ΣW_j; nil on every other rank
	buf    []float32 // this rank's copy of W̄_t, filled by the broadcast
	params []float32 // this rank's local weights
	sp     *streamPlan
	crew   *bucketCrew // non-nil: the broadcast streams per bucket of sp
	nb     int         // broadcast rounds per exchange: sp's buckets, or 1
}

// newElasticCenter wires one rank into the exchange. center is the master's
// W̄ (nil elsewhere); crew selects the pre-forked bucketed broadcast.
func newElasticCenter(ep *comm.Endpoint, master int, center, params []float32, sp *streamPlan, crew *bucketCrew) *elasticCenter {
	x := &elasticCenter{ep: ep, master: master, center: center, params: params,
		buf: make([]float32, len(params)), sp: sp, crew: crew, nb: 1}
	if center != nil {
		x.sum = make([]float32, len(params))
	}
	if crew != nil {
		x.nb = sp.bz.NumBuckets()
	}
	return x
}

// begin stages W̄_t at the master and, when streaming, forks its broadcast.
// Rounds: buckets t(nb+1)…+nb−1, the reduce t(nb+1)+nb.
func (x *elasticCenter) begin(st *step) {
	if x.center != nil {
		copy(x.buf, x.center)
	}
	if x.crew != nil {
		x.sp.forkBroadcasts(x.crew, fmt.Sprintf("bcast%d.%d", st.rank, st.t), st.t*(x.nb+1), x.master, x.ep, x.buf)
	}
}

// finish lands W̄_t in buf — joining the forked waves, or broadcasting in
// line — and reduces ΣW_j to the master. It returns the crew's active
// seconds and the instant the reduce began, for the caller's accounting.
func (x *elasticCenter) finish(st *step) (active, tR float64) {
	base := st.t * (x.nb + 1)
	if x.crew != nil {
		active = x.crew.wait(st.p)
	} else {
		x.ep.Broadcast(st.p, base, x.master, x.buf)
	}
	tR = st.p.Now()
	contrib := x.params
	if x.sum != nil {
		copy(x.sum, x.params)
		contrib = x.sum
	}
	x.ep.Reduce(st.p, base+x.nb, x.master, contrib)
	return active, tR
}

// gradExchange is the data-parallel gradient exchange of sync-sgd and
// hier-sync-sgd over one comm.Endpoint — the handle flat and hierarchical
// communicators both hand out, so hierarchy is an engine choice the seam
// never sees. The exchange runs in place on the replica's packed gradient
// (the collectives borrow it for the length of the call). Two forms:
//
//	inline   — after a whole-gradient compute: collect (the dense allreduce,
//	           the hybrid's dense runs + factor allgathers, or the partial-K
//	           gather) in line, the wall time split four ways at the root;
//	streamed — onBucket/onFactor fork each piece's collective at its
//	           gradient-ready instant during a streamed compute, join waits.
//
// Either way every live rank ends with the rank-ordered sum, bit-identical
// to comm.ReduceSum: same elements, same order, whichever pieces carried
// them.
type gradExchange struct {
	st    *step // the owning rank's step (the walk's callbacks need it)
	ep    *comm.Endpoint
	w     *worker
	grads []float32
	q     *quant.Quantizer // error-feedback quantizer, nil uncompressed
	qStep int              // last iteration quantized
	hy    *hybridRun       // no segs when every layer rides the dense allreduce
	// outs holds the gathered factor lists per SFB segment and scratch the
	// reconstruction buffer, both reused every iteration.
	outs    [][]comm.Factors
	scratch []float32
	crew    *bucketCrew
	nb      int // buckets per iteration (streamed form)
	// perIter is the collective rounds one iteration consumes, so round
	// numbers never collide across its buckets, dense runs and factor gathers.
	perIter int
	// retryWait reads the coordinating rank's cumulative sender-side retry
	// seconds; collect is the in-line form's collective.
	retryWait func() float64
	collect   func(st *step)
}

// ready quantizes the gradient (error feedback) once per iteration, at the
// first instant the whole gradient is final.
func (x *gradExchange) ready() {
	if x.q != nil && x.qStep != x.st.t {
		x.q.Apply(x.grads, x.grads)
		x.qStep = x.st.t
	}
}

// onBucket forks bucket b's allreduce the moment its last layer's gradient
// lands: same per-bucket schedule, running beneath the tail of backprop and
// beneath the other buckets (bounded in flight).
func (x *gradExchange) onBucket(b int, bk comm.Bucket) {
	x.ready()
	t := x.st.t
	x.crew.fork(fmt.Sprintf("ar%d.%d.%d", x.st.rank, t, b), func(bp *sim.Proc) {
		x.ep.AllReduceRange(bp, t*x.perIter+b, x.grads, bk.Lo, bk.Hi)
	})
}

// onFactor forks an SFB layer's factor allgather at its gradient-ready
// instant; the collective snapshots the live (dY, X) views at send time.
func (x *gradExchange) onFactor(seg int, e nn.GradEvent) {
	x.ready()
	t, k := x.st.t, x.hy.bySeg[seg]
	self := comm.Factors{DY: e.DY, X: e.X, B: e.B, F: e.F, D: e.D}
	x.crew.fork(fmt.Sprintf("fg%d.%d.%d", x.st.rank, t, k), func(bp *sim.Proc) {
		x.outs[k] = x.ep.FactorAllGather(bp, t*x.perIter+x.nb+k, self, x.outs[k])
	})
}

// reconstruct turns the gathered factor lists back into dense gradients —
// receiver-side compute after the joins (it needs all P pairs) — and returns
// its modeled seconds (0 without SFB layers).
func (x *gradExchange) reconstruct(st *step) float64 {
	if len(x.hy.segs) == 0 {
		return 0
	}
	for k, sg := range x.hy.segs {
		x.scratch = comm.ReconstructFactors(x.grads[sg.lo:sg.hi], x.outs[k], x.scratch)
	}
	st.spend(CatSFBRecon, x.hy.reconTime)
	return x.hy.reconTime
}

// join is the streamed form's exchange: wait out the forked pieces; what
// outlasted the busy path is exposed, the rest ran hidden.
func (x *gradExchange) join(st *step) {
	hidden := x.crew.wait(st.p)
	st.busy += x.reconstruct(st)
	st.chargeExposed(CatCPUGPUParam, st.p.Now(), hidden)
}

// inline is the whole-gradient form's exchange. Its wall time splits four
// ways: the root's own retry stalls (CatRetry), its partial-aggregation
// deadline waits (CatDropped), the SFB reconstruction (CatSFBRecon), and
// the rest — the communication proper.
func (x *gradExchange) inline(st *step) {
	x.ready()
	tA := st.p.Now()
	rw0, dw0 := x.retryWait(), st.rc.droppedWait
	x.collect(st)
	recon := x.reconstruct(st)
	retryD, dropD := x.retryWait()-rw0, st.rc.droppedWait-dw0
	commT := st.p.Now() - tA - retryD - dropD - recon
	if commT < 0 {
		commT = 0
	}
	st.charge(CatCPUGPUParam, commT)
	st.charge(CatRetry, retryD)
	st.charge(CatDropped, dropD)
}

// collectHybrid is the hybrid comm mode in line: each contiguous run of
// dense segments allreduces as a range, each SFB layer's factors allgather —
// the concatenation covers the model exactly once, in rank order everywhere.
func (x *gradExchange) collectHybrid(st *step) {
	base, nd := st.t*x.perIter, len(x.hy.denseRuns)
	for j, dr := range x.hy.denseRuns {
		x.ep.AllReduceRange(st.p, base+j, x.grads, dr.lo, dr.hi)
	}
	for k, sg := range x.hy.segs {
		dy, xin, fb, ff, fd := x.w.net.Layers[sg.layer].(nn.FactorLayer).BackwardFactors()
		x.outs[k] = x.ep.FactorAllGather(st.p, base+nd+k, comm.Factors{DY: dy, X: xin, B: fb, F: ff, D: fd}, x.outs[k])
	}
}
