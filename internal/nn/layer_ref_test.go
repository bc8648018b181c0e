package nn

import (
	"fmt"
	"math"
	"testing"

	"scaledl/internal/tensor"
)

// The scalar ReLU and pooling loops that ran in activation.go and pool.go
// before those layers moved to tensor's compare-and-select kernels and the
// hoisted pooling geometry, kept verbatim as the oracle: per-element sign
// branch, per-tap padding tests, `bestIdx < 0 ||` first-tap rule, one
// batch-wide zero fill and += scatter in backward.

func refReLUForward(x []float32) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

func refReLUBackward(dy, y []float32) []float32 {
	dx := make([]float32, len(dy))
	for i, v := range dy {
		if y[i] > 0 {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// refPool is the pre-rewrite Pool2D: geometry plus the loop bodies.
type refPool struct {
	kind                PoolKind
	in, out             Shape
	kernel, stride, pad int
	argmax              []int32
}

func (l *refPool) Forward(x []float32, b int, train bool) []float32 {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	out := make([]float32, b*outDim)
	if l.kind == MaxPool && train {
		l.argmax = make([]int32, b*outDim)
	}
	h, w := l.in.H, l.in.W
	oh, ow := l.out.H, l.out.W
	for i := 0; i < b; i++ {
		for c := 0; c < l.in.C; c++ {
			plane := x[i*inDim+c*h*w : i*inDim+(c+1)*h*w]
			outPlane := out[i*outDim+c*oh*ow : i*outDim+(c+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y0, x0 := oy*l.stride-l.pad, ox*l.stride-l.pad
					switch l.kind {
					case MaxPool:
						var best float32
						bestIdx := int32(-1)
						for ky := 0; ky < l.kernel; ky++ {
							yy := y0 + ky
							if yy < 0 {
								continue
							}
							if yy >= h {
								break
							}
							for kx := 0; kx < l.kernel; kx++ {
								xx := x0 + kx
								if xx < 0 {
									continue
								}
								if xx >= w {
									break
								}
								if v := plane[yy*w+xx]; bestIdx < 0 || v > best {
									best = v
									bestIdx = int32(yy*w + xx)
								}
							}
						}
						outPlane[oy*ow+ox] = best
						if train {
							l.argmax[i*outDim+c*oh*ow+oy*ow+ox] = bestIdx
						}
					case AvgPool:
						var s float32
						var cnt float32
						for ky := 0; ky < l.kernel; ky++ {
							yy := y0 + ky
							if yy < 0 {
								continue
							}
							if yy >= h {
								break
							}
							for kx := 0; kx < l.kernel; kx++ {
								xx := x0 + kx
								if xx < 0 {
									continue
								}
								if xx >= w {
									break
								}
								s += plane[yy*w+xx]
								cnt++
							}
						}
						outPlane[oy*ow+ox] = s / cnt
					}
				}
			}
		}
	}
	return out
}

func (l *refPool) Backward(dy []float32, b int) []float32 {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	dx := make([]float32, b*inDim)
	for i := range dx {
		dx[i] = 0
	}
	h, w := l.in.H, l.in.W
	oh, ow := l.out.H, l.out.W
	for i := 0; i < b; i++ {
		for c := 0; c < l.in.C; c++ {
			dxPlane := dx[i*inDim+c*h*w : i*inDim+(c+1)*h*w]
			dyPlane := dy[i*outDim+c*oh*ow : i*outDim+(c+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dyPlane[oy*ow+ox]
					switch l.kind {
					case MaxPool:
						if idx := l.argmax[i*outDim+c*oh*ow+oy*ow+ox]; idx >= 0 {
							dxPlane[idx] += g
						}
					case AvgPool:
						y0, x0 := oy*l.stride-l.pad, ox*l.stride-l.pad
						cnt := 0
						for ky := 0; ky < l.kernel; ky++ {
							yy := y0 + ky
							if yy < 0 {
								continue
							}
							if yy >= h {
								break
							}
							for kx := 0; kx < l.kernel; kx++ {
								xx := x0 + kx
								if xx < 0 {
									continue
								}
								if xx >= w {
									break
								}
								cnt++
							}
						}
						share := g / float32(cnt)
						for ky := 0; ky < l.kernel; ky++ {
							yy := y0 + ky
							if yy < 0 {
								continue
							}
							if yy >= h {
								break
							}
							for kx := 0; kx < l.kernel; kx++ {
								xx := x0 + kx
								if xx < 0 {
									continue
								}
								if xx >= w {
									break
								}
								dxPlane[yy*w+xx] += share
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// salted fills n floats with a handful of repeated normals (ties inside
// almost every window) salted with ±0, ±Inf and NaN.
func salted(g *tensor.RNG, n int) []float32 {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	salt := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, nan, -nan}
	x := make([]float32, n)
	for i := range x {
		if g.Intn(4) == 0 {
			x[i] = salt[g.Intn(len(salt))]
		} else {
			x[i] = float32(g.Intn(7)-3) / 2
		}
	}
	return x
}

func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestReLUMatchesScalarLoops: the layer's output and gradient are the
// branching loops' bit for bit, on the edge values too.
func TestReLUMatchesScalarLoops(t *testing.T) {
	g := tensor.NewRNG(61)
	for _, n := range []int{1, 5, 16, 33, 200} {
		l := NewReLU(Shape{C: 1, H: 1, W: n})
		x, dy := salted(g, 2*n), salted(g, 2*n)
		y := l.Forward(x, 2, true)
		if i := firstBitDiff(y, refReLUForward(x)); i >= 0 {
			t.Fatalf("n=%d: forward(%v) = %v", n, x[i], y[i])
		}
		if i := firstBitDiff(l.Backward(dy, 2), refReLUBackward(dy, y)); i >= 0 {
			t.Fatalf("n=%d: backward differs at %d (dy %v, y %v)", n, i, dy[i], y[i])
		}
	}
}

// TestPool2DMatchesScalarLoops sweeps every legal small geometry — kernel
// 1-4, stride 1-3, every pad below the kernel, H ≠ W, a few channel and batch
// counts, max and average, training and inference forwards — and requires the
// outputs, the max pool's winners and dx to be the old loops' bit for bit on
// inputs full of ties, signed zeros, infinities and NaNs. It covers the
// whole-window path, the clipped path and rows that mix them, on whichever
// tier the process dispatched to (CI's GODEBUG legs reach the narrower ones).
func TestPool2DMatchesScalarLoops(t *testing.T) {
	g := tensor.NewRNG(62)
	cases := 0
	for kernel := 1; kernel <= 4; kernel++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad < kernel; pad++ {
				for _, kind := range []PoolKind{MaxPool, AvgPool} {
					in := Shape{C: 1 + g.Intn(5), H: kernel + g.Intn(9), W: kernel + g.Intn(20)}
					if in.H == in.W {
						in.W++
					}
					b := 1 + g.Intn(3)
					l := NewPool2DPad(in, kind, kernel, stride, pad)
					ref := &refPool{kind: kind, in: in, out: l.OutShape(), kernel: kernel, stride: stride, pad: pad}
					name := fmt.Sprintf("%s in %v b %d pad %d", l.Name(), in, b, pad)
					x := salted(g, b*in.Dim())
					if i := firstBitDiff(l.Forward(x, b, false), ref.Forward(x, b, false)); i >= 0 {
						t.Fatalf("%s: inference output differs at %d", name, i)
					}
					got, want := l.Forward(x, b, true), ref.Forward(x, b, true)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("%s: output[%d] = %v, want %v", name, i, got[i], want[i])
					}
					for i, at := range ref.argmax {
						if l.argmax[i] != at {
							t.Fatalf("%s: winner[%d] at %d, want %d", name, i, l.argmax[i], at)
						}
					}
					dy := salted(g, len(want))
					if i := firstBitDiff(l.Backward(dy, b), ref.Backward(dy, b)); i >= 0 {
						t.Fatalf("%s: dx differs at %d", name, i)
					}
					cases++
				}
			}
		}
	}
	if cases != 60 {
		t.Fatalf("swept %d geometries, want 60", cases)
	}
}

// TestPoolBackwardAfterInferenceForwardPanics: a forward with train=false
// records nothing Backward may use, so the batch guard must still trip — it
// used to pass and scatter through stale (or nil) winners.
func TestPoolBackwardAfterInferenceForwardPanics(t *testing.T) {
	l := NewPool2D(Shape{C: 1, H: 4, W: 4}, MaxPool, 2, 2)
	l.Forward(make([]float32, 16), 1, false)
	defer func() {
		if r := recover(); r != "nn: pool Backward batch mismatch with Forward" {
			t.Fatalf("Backward after an inference forward: recovered %v", r)
		}
	}()
	l.Backward(make([]float32, 4), 1)
}

// TestReLUPoolZeroAllocs: once their buffers have grown, ReLU and both pool
// kinds run forward and backward without allocating (the GEMM layers' twin is
// tensor's TestGEMMZeroAllocs).
func TestReLUPoolZeroAllocs(t *testing.T) {
	in := Shape{C: 8, H: 28, W: 28}
	const b = 8
	x := make([]float32, b*in.Dim())
	tensor.NewRNG(63).FillNormal(x, 0, 1)
	for _, l := range []Layer{
		NewReLU(in),
		NewPool2D(in, MaxPool, 2, 2),
		NewPool2DPad(in, MaxPool, 3, 1, 1),
		NewPool2D(in, AvgPool, 3, 2),
	} {
		dy := make([]float32, b*l.OutShape().Dim())
		step := func() {
			l.Forward(x, b, true)
			l.Backward(dy, b)
			l.Forward(x, b, false)
		}
		step()
		if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
			t.Errorf("%s: %v allocs per forward+backward in steady state, want 0", l.Name(), allocs)
		}
	}
}
