package nn

import (
	"fmt"
	"math"

	"scaledl/internal/tensor"
)

// ReLU is the rectified linear activation used throughout the paper's
// networks. Both passes are tensor's tier-dispatched compare-and-select
// kernels; the forward output doubles as the backward mask.
type ReLU struct {
	in     Shape
	outBuf []float32
	dxBuf  []float32
}

// NewReLU creates an elementwise ReLU layer.
func NewReLU(in Shape) *ReLU { return &ReLU{in: in} }

func (l *ReLU) Name() string                 { return "relu" }
func (l *ReLU) OutShape() Shape              { return l.in }
func (l *ReLU) ParamCount() int              { return 0 }
func (l *ReLU) Bind(params, grads []float32) {}
func (l *ReLU) Init(g *tensor.RNG)           {}

func (l *ReLU) Forward(x []float32, b int, train bool) []float32 {
	out := buf(&l.outBuf, len(x))
	tensor.ReLU(out, x)
	return out
}

func (l *ReLU) Backward(dy []float32, b int) []float32 {
	dx := buf(&l.dxBuf, len(dy))
	tensor.ReLUGrad(dx, dy, l.outBuf)
	return dx
}

func (l *ReLU) FwdFLOPsPerSample() int64 { return int64(l.in.Dim()) }

// Tanh is the hyperbolic-tangent activation (classic LeNet used it).
type Tanh struct {
	in     Shape
	outBuf []float32
	dxBuf  []float32
}

// NewTanh creates an elementwise tanh layer.
func NewTanh(in Shape) *Tanh { return &Tanh{in: in} }

func (l *Tanh) Name() string                 { return "tanh" }
func (l *Tanh) OutShape() Shape              { return l.in }
func (l *Tanh) ParamCount() int              { return 0 }
func (l *Tanh) Bind(params, grads []float32) {}
func (l *Tanh) Init(g *tensor.RNG)           {}

func (l *Tanh) Forward(x []float32, b int, train bool) []float32 {
	out := buf(&l.outBuf, len(x))
	for i, v := range x {
		out[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

func (l *Tanh) Backward(dy []float32, b int) []float32 {
	dx := buf(&l.dxBuf, len(dy))
	for i, v := range dy {
		y := l.outBuf[i]
		dx[i] = v * (1 - y*y)
	}
	return dx
}

func (l *Tanh) FwdFLOPsPerSample() int64 { return 4 * int64(l.in.Dim()) }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	in     Shape
	outBuf []float32
	dxBuf  []float32
}

// NewSigmoid creates an elementwise sigmoid layer.
func NewSigmoid(in Shape) *Sigmoid { return &Sigmoid{in: in} }

func (l *Sigmoid) Name() string                 { return "sigmoid" }
func (l *Sigmoid) OutShape() Shape              { return l.in }
func (l *Sigmoid) ParamCount() int              { return 0 }
func (l *Sigmoid) Bind(params, grads []float32) {}
func (l *Sigmoid) Init(g *tensor.RNG)           {}

func (l *Sigmoid) Forward(x []float32, b int, train bool) []float32 {
	out := buf(&l.outBuf, len(x))
	for i, v := range x {
		out[i] = float32(1.0 / (1.0 + math.Exp(-float64(v))))
	}
	return out
}

func (l *Sigmoid) Backward(dy []float32, b int) []float32 {
	dx := buf(&l.dxBuf, len(dy))
	for i, v := range dy {
		y := l.outBuf[i]
		dx[i] = v * y * (1 - y)
	}
	return dx
}

func (l *Sigmoid) FwdFLOPsPerSample() int64 { return 4 * int64(l.in.Dim()) }

// Dropout randomly zeroes activations during training with probability p and
// scales survivors by 1/(1-p) (inverted dropout). Its mask stream is seeded
// per network, keeping distributed runs reproducible.
type Dropout struct {
	in     Shape
	p      float32
	g      *tensor.RNG
	mask   []float32
	outBuf []float32
	dxBuf  []float32
}

// NewDropout creates a dropout layer with drop probability p in [0, 1).
func NewDropout(in Shape, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout p=%v out of [0,1)", p))
	}
	return &Dropout{in: in, p: float32(p)}
}

func (l *Dropout) Name() string                 { return fmt.Sprintf("dropout%.2f", l.p) }
func (l *Dropout) OutShape() Shape              { return l.in }
func (l *Dropout) ParamCount() int              { return 0 }
func (l *Dropout) Bind(params, grads []float32) {}
func (l *Dropout) Init(g *tensor.RNG)           { l.seed(g) }
func (l *Dropout) seed(g *tensor.RNG)           { l.g = g.Fork() }

func (l *Dropout) Forward(x []float32, b int, train bool) []float32 {
	out := buf(&l.outBuf, len(x))
	if !train || l.p == 0 {
		copy(out, x)
		return out
	}
	if cap(l.mask) < len(x) {
		l.mask = make([]float32, len(x))
	}
	l.mask = l.mask[:len(x)]
	keep := 1 - l.p
	scale := 1 / keep
	for i := range x {
		if l.g.Float32() < keep {
			l.mask[i] = scale
		} else {
			l.mask[i] = 0
		}
		out[i] = x[i] * l.mask[i]
	}
	return out
}

func (l *Dropout) Backward(dy []float32, b int) []float32 {
	dx := buf(&l.dxBuf, len(dy))
	for i, v := range dy {
		dx[i] = v * l.mask[i]
	}
	return dx
}

func (l *Dropout) FwdFLOPsPerSample() int64 { return int64(l.in.Dim()) }
