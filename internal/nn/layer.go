// Package nn is the neural-network framework substrate: layers with real
// forward/backward passes, networks whose parameters live in one contiguous
// packed buffer (the paper's §5.2 "single-layer layout" optimization), and a
// model zoo covering the paper's workloads (LeNet, CIFAR AlexNet executed
// for real; ImageNet AlexNet, VGG-19 and GoogleNet as exact-dimension cost
// tables for the simulator).
//
// Layers expose per-sample FLOP counts and parameter sizes so the hardware
// model in internal/hw can charge simulated compute time and the
// communication planner in internal/comm can build per-layer or packed
// message plans.
package nn

import (
	"fmt"

	"scaledl/internal/tensor"
)

// Shape is a CHW activation shape.
type Shape struct {
	C, H, W int
}

// Dim returns the flattened element count.
func (s Shape) Dim() int { return s.C * s.H * s.W }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Layer is one differentiable stage of a network. Forward and Backward
// operate on flattened batches: x is b × InShape.Dim() row-major, the return
// of Forward is b × OutShape().Dim(). Backward consumes dL/dy and returns
// dL/dx, accumulating parameter gradients into the packed gradient views
// bound by Bind.
type Layer interface {
	// Name identifies the layer in breakdowns and message plans.
	Name() string
	// OutShape is the activation shape produced by the layer.
	OutShape() Shape
	// ParamCount is the number of float32 parameters (0 for stateless layers).
	ParamCount() int
	// Bind points the layer at its slices of the network's packed parameter
	// and gradient buffers. Called once by Net construction.
	Bind(params, grads []float32)
	// Init fills bound parameters (Xavier for weights, zero for biases).
	Init(g *tensor.RNG)
	// Forward runs the layer on a batch of b samples. When train is false
	// the layer records nothing for Backward — no input, no batch size, no
	// pooling winners — so an inference forward never licenses a Backward:
	// the batch a layer checks Backward against is that of its last
	// train=true forward.
	Forward(x []float32, b int, train bool) []float32
	// Backward propagates gradients; must be called after a Forward with
	// train=true on the same batch.
	Backward(dy []float32, b int) []float32
	// FwdFLOPsPerSample is the forward multiply-add cost (2·MACs) of one
	// sample; the backward pass is charged 2× this by the cost model,
	// matching the usual fwd:bwd ≈ 1:2 ratio.
	FwdFLOPsPerSample() int64
}

// FactorLayer is implemented by layers whose weight gradient is a low-rank
// outer product of two backward-pass activations — dW = dYᵀ·X for a dense
// layer with batch b: dY is b×F, X is b×D, dW is F×D. Communicating the
// factors costs O(b·(F+D)) wire instead of O(F·D), the sufficient-factor
// observation of Poseidon; the comm tier reconstructs the dense gradient on
// the receiver through the same GEMM the layer itself used, so the result is
// bit-identical to shipping dW.
type FactorLayer interface {
	// BackwardFactors returns zero-copy views of the factors from the most
	// recent Backward call: dy (b×F), x (b×D), plus their dimensions. Valid
	// until the layer's next Forward/Backward.
	BackwardFactors() (dy, x []float32, b, f, d int)
	// FactorShape returns the static factor dimensions (F, D) — available
	// before any Backward, for cost models sizing the factor payload
	// b·(F+D) against the dense gradient F·D+F.
	FactorShape() (f, d int)
}

// buf grows a scratch slice to n elements, reusing capacity.
func buf(p *[]float32, n int) []float32 {
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return *p
}
