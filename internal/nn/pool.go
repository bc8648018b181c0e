package nn

import (
	"fmt"

	"scaledl/internal/tensor"
)

// PoolKind selects max or average pooling.
type PoolKind int

const (
	// MaxPool takes the maximum of each window.
	MaxPool PoolKind = iota
	// AvgPool takes the arithmetic mean of each window.
	AvgPool
)

// Pool2D is a spatial pooling layer over square windows, with optional
// zero-free padding: out-of-bounds taps are skipped (max ignores them,
// average divides by the actual tap count), so a 3×3/1 pad-1 max pool — the
// inception pooling branch — preserves spatial dimensions.
//
// Which windows the input edge clips is decided once at construction: output
// rows [oyLo,oyHi) × columns [oxLo,oxHi) have whole windows, which a max pool
// runs with no bounds tests (that is every window when pad is 0); the rest,
// and every window of an average pool, go through a scan that computes its
// tap bounds once per window. A max pool scans its taps row-major and keeps
// the first of tied taps; tensor.MaxPoolRow states the NaN rules.
type Pool2D struct {
	name    string
	kind    PoolKind
	in, out Shape
	kernel  int
	stride  int
	pad     int

	oyLo, oyHi, oxLo, oxHi int // outputs whose windows lie inside the input (max pooling)

	outBuf []float32
	dxBuf  []float32
	argmax []int32 // winners for max pooling, b × outDim
	lastB  int
}

// NewPool2D creates an unpadded pooling layer.
func NewPool2D(in Shape, kind PoolKind, kernel, stride int) *Pool2D {
	return NewPool2DPad(in, kind, kernel, stride, 0)
}

// NewPool2DPad creates a pooling layer with padding.
func NewPool2DPad(in Shape, kind PoolKind, kernel, stride, pad int) *Pool2D {
	if kernel <= 0 || stride <= 0 || pad < 0 || pad >= kernel {
		panic("nn: invalid pool geometry")
	}
	oh := tensor.OutDim(in.H, kernel, stride, pad)
	ow := tensor.OutDim(in.W, kernel, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: pool output %dx%d for input %v", oh, ow, in))
	}
	kindName := "max"
	if kind == AvgPool {
		kindName = "avg"
	}
	l := &Pool2D{
		name:   fmt.Sprintf("%spool%d/%d", kindName, kernel, stride),
		kind:   kind,
		in:     in,
		out:    Shape{C: in.C, H: oh, W: ow},
		kernel: kernel,
		stride: stride,
		pad:    pad,
	}
	l.oyLo, l.oyHi = wholeWindows(oh, in.H, kernel, stride, pad)
	l.oxLo, l.oxHi = wholeWindows(ow, in.W, kernel, stride, pad)
	if l.oxLo == l.oxHi {
		l.oyLo, l.oyHi = 0, 0 // no row has a whole window
	}
	return l
}

// wholeWindows returns the outputs [lo,hi) ⊆ [0,n) along one axis whose
// window [o·stride-pad, o·stride-pad+kernel) lies inside [0,dim); (0,0) when
// there are none.
func wholeWindows(n, dim, kernel, stride, pad int) (lo, hi int) {
	lo = (pad + stride - 1) / stride
	if room := dim + pad - kernel; room >= 0 {
		hi = min(room/stride+1, n)
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

func (l *Pool2D) Name() string                 { return l.name }
func (l *Pool2D) OutShape() Shape              { return l.out }
func (l *Pool2D) ParamCount() int              { return 0 }
func (l *Pool2D) Bind(params, grads []float32) {}
func (l *Pool2D) Init(g *tensor.RNG)           {}

func (l *Pool2D) Forward(x []float32, b int, train bool) []float32 {
	inDim, outDim := l.in.Dim(), l.out.Dim()
	if len(x) != b*inDim {
		panic(fmt.Sprintf("nn: %s forward input %d for batch %d×%d", l.name, len(x), b, inDim))
	}
	out := buf(&l.outBuf, b*outDim)
	var argmax []int32 // winners are bookkeeping for Backward only
	if l.kind == MaxPool && train {
		if cap(l.argmax) < b*outDim {
			l.argmax = make([]int32, b*outDim)
		}
		l.argmax = l.argmax[:b*outDim]
		argmax = l.argmax
	}
	hw, ohw := l.in.H*l.in.W, l.out.H*l.out.W
	for p := 0; p < b*l.in.C; p++ {
		plane, outPlane := x[p*hw:(p+1)*hw], out[p*ohw:(p+1)*ohw]
		if l.kind == AvgPool {
			l.avgPlane(outPlane, plane)
			continue
		}
		var arg []int32
		if argmax != nil {
			arg = argmax[p*ohw : (p+1)*ohw]
		}
		l.maxPlane(outPlane, arg, plane)
	}
	if train {
		l.lastB = b
	}
	return out
}

// maxPlane pools one channel plane; arg, when non-nil, receives each
// window's winning position within the plane.
func (l *Pool2D) maxPlane(out []float32, arg []int32, plane []float32) {
	w, ow, s := l.in.W, l.out.W, l.stride
	for oy := 0; oy < l.out.H; oy++ {
		if oy < l.oyLo || oy >= l.oyHi {
			l.maxClipped(out, arg, plane, oy, 0, ow)
			continue
		}
		l.maxClipped(out, arg, plane, oy, 0, l.oxLo)
		first := (oy*s-l.pad)*w + l.oxLo*s - l.pad
		var argRow []int32
		if arg != nil {
			argRow = arg[oy*ow+l.oxLo : oy*ow+l.oxHi]
		}
		tensor.MaxPoolRow(out[oy*ow+l.oxLo:oy*ow+l.oxHi], argRow, plane[first:], w, l.kernel, s, int32(first))
		l.maxClipped(out, arg, plane, oy, l.oxHi, ow)
	}
}

// clip returns the taps [lo,hi) ⊆ [0,kernel) of output o's window that fall
// inside [0,dim) along one axis, and the window's (possibly negative) start.
// pad < kernel (NewPool2DPad) and OutDim keep every window at least one tap.
func (l *Pool2D) clip(o, dim int) (start, lo, hi int) {
	start = o*l.stride - l.pad
	return start, max(0, -start), min(l.kernel, dim-start)
}

// maxClipped is the general max-pool scan, for windows [ox0,ox1) of output
// row oy that the input edge may clip: same row-major first-wins scan as
// tensor.MaxPoolRow over the taps that exist.
func (l *Pool2D) maxClipped(out []float32, arg []int32, plane []float32, oy, ox0, ox1 int) {
	w, ow := l.in.W, l.out.W
	y0, kyLo, kyHi := l.clip(oy, l.in.H)
	for ox := ox0; ox < ox1; ox++ {
		x0, kxLo, kxHi := l.clip(ox, w)
		at := (y0+kyLo)*w + x0 + kxLo
		best := plane[at]
		for ky := kyLo; ky < kyHi; ky++ {
			row := (y0+ky)*w + x0
			for kx := kxLo; kx < kxHi; kx++ {
				if v := plane[row+kx]; v > best {
					best, at = v, row+kx
				}
			}
		}
		out[oy*ow+ox] = best
		if arg != nil {
			arg[oy*ow+ox] = int32(at)
		}
	}
}

// avgPlane pools one channel plane, dividing each window's sum by the taps
// the input edge left it. One scan serves every geometry: its tap bounds are
// computed once per window, and no measured workload runs an average pool, so
// it has no separate whole-window path.
func (l *Pool2D) avgPlane(out, plane []float32) {
	w, ow := l.in.W, l.out.W
	for oy := 0; oy < l.out.H; oy++ {
		y0, kyLo, kyHi := l.clip(oy, l.in.H)
		for ox := 0; ox < ow; ox++ {
			x0, kxLo, kxHi := l.clip(ox, w)
			var sum float32
			for ky := kyLo; ky < kyHi; ky++ {
				for _, v := range plane[(y0+ky)*w+x0+kxLo : (y0+ky)*w+x0+kxHi] {
					sum += v
				}
			}
			out[oy*ow+ox] = sum / float32((kyHi-kyLo)*(kxHi-kxLo))
		}
	}
}

func (l *Pool2D) Backward(dy []float32, b int) []float32 {
	if l.lastB != b {
		panic("nn: pool Backward batch mismatch with Forward")
	}
	dx := buf(&l.dxBuf, b*l.in.Dim())
	hw, ohw := l.in.H*l.in.W, l.out.H*l.out.W
	// Each plane is cleared just before its windows scatter into it, so the
	// accumulation runs in L1 rather than over a batch-sized zero fill.
	for p := 0; p < b*l.in.C; p++ {
		dxPlane, dyPlane := dx[p*hw:(p+1)*hw], dy[p*ohw:(p+1)*ohw]
		clear(dxPlane)
		if l.kind == AvgPool {
			l.avgPlaneGrad(dxPlane, dyPlane)
			continue
		}
		// Every window has a winner: see clip.
		for o, at := range l.argmax[p*ohw : (p+1)*ohw] {
			dxPlane[at] += dyPlane[o]
		}
	}
	return dx
}

// avgPlaneGrad spreads each output gradient evenly over the taps its window
// had, accumulating where windows overlap.
func (l *Pool2D) avgPlaneGrad(dx, dy []float32) {
	w, ow := l.in.W, l.out.W
	for oy := 0; oy < l.out.H; oy++ {
		y0, kyLo, kyHi := l.clip(oy, l.in.H)
		for ox := 0; ox < ow; ox++ {
			x0, kxLo, kxHi := l.clip(ox, w)
			share := dy[oy*ow+ox] / float32((kyHi-kyLo)*(kxHi-kxLo))
			for ky := kyLo; ky < kyHi; ky++ {
				row := dx[(y0+ky)*w+x0+kxLo : (y0+ky)*w+x0+kxHi]
				for kx := range row {
					row[kx] += share
				}
			}
		}
	}
}

func (l *Pool2D) FwdFLOPsPerSample() int64 {
	return int64(l.out.Dim()) * int64(l.kernel) * int64(l.kernel)
}
