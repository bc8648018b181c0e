package nn

import (
	"testing"

	"scaledl/internal/tensor"
)

// LeNet conv2 geometry: the hottest layer of the training harness.
func benchConv() (*Conv2D, []float32, int) {
	in := Shape{C: 20, H: 12, W: 12}
	l := NewConv2D(in, 50, 5, 1, 0)
	params := make([]float32, l.ParamCount())
	grads := make([]float32, l.ParamCount())
	l.Bind(params, grads)
	l.Init(tensor.NewRNG(31))
	const b = 16
	x := make([]float32, b*in.Dim())
	tensor.NewRNG(32).FillNormal(x, 0, 1)
	return l, x, b
}

func BenchmarkConv2DForward(b *testing.B) {
	l, x, batch := benchConv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Forward(x, batch, true)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	l, x, batch := benchConv()
	out := l.Forward(x, batch, true)
	dy := make([]float32, len(out))
	tensor.NewRNG(33).FillNormal(dy, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Backward(dy, batch)
	}
}

// The non-GEMM layers at the two shapes the end-to-end benchmark trains:
// TinyCNN's first activation map at batch 8 and LeNet's widest one at batch
// 32. They report ns/op and GB/s for reading (host speed, never gated) and
// allocs/op, which BENCH_gemm.json gates at exactly 0.
var layerBenchShapes = []struct {
	name string
	in   Shape
	b    int
}{
	{"tinycnn", Shape{C: 8, H: 28, W: 28}, 8},
	{"lenet", Shape{C: 20, H: 24, W: 24}, 32},
}

// benchLayer times fn over a layer built at each shape; moved is how many
// floats one call reads and writes, as a multiple of the input size.
func benchLayer(b *testing.B, build func(in Shape) Layer, moved float64, fn func(l Layer, x, dy []float32, batch int)) {
	for _, s := range layerBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			l := build(s.in)
			x := make([]float32, s.b*s.in.Dim())
			tensor.NewRNG(34).FillNormal(x, 0, 1)
			dy := make([]float32, s.b*l.OutShape().Dim())
			tensor.NewRNG(35).FillNormal(dy, 0, 1)
			l.Forward(x, s.b, true)
			l.Backward(dy, s.b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(l, x, dy, s.b)
			}
			bytes := 4 * moved * float64(len(x)) * float64(b.N)
			b.ReportMetric(bytes/1e9/b.Elapsed().Seconds(), "GB/s")
		})
	}
}

func newBenchReLU(in Shape) Layer { return NewReLU(in) }

func BenchmarkReLU(b *testing.B) {
	benchLayer(b, newBenchReLU, 2, func(l Layer, x, _ []float32, batch int) { l.Forward(x, batch, true) })
}

func BenchmarkReLUGrad(b *testing.B) {
	benchLayer(b, newBenchReLU, 3, func(l Layer, _, dy []float32, batch int) { l.Backward(dy, batch) })
}

// poolStep is a training forward plus backward: the input read, a quarter or
// all of it written as output and read back as dy, dx written.
func poolStep(l Layer, x, dy []float32, batch int) {
	l.Forward(x, batch, true)
	l.Backward(dy, batch)
}

// BenchmarkMaxPool2x2 is the whole-window path through the tier's 2×2 kernel
// (every pool of TinyCNN and LeNet).
func BenchmarkMaxPool2x2(b *testing.B) {
	benchLayer(b, func(in Shape) Layer { return NewPool2D(in, MaxPool, 2, 2) }, 2.5, poolStep)
}

// BenchmarkMaxPoolPadded3x3s1 is the inception pooling branch: overlapping
// padded windows, so the border runs the clipped scan and the interior the
// portable any-kernel row scan.
func BenchmarkMaxPoolPadded3x3s1(b *testing.B) {
	benchLayer(b, func(in Shape) Layer { return NewPool2DPad(in, MaxPool, 3, 1, 1) }, 4, poolStep)
}
