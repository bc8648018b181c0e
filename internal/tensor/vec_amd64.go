//go:build amd64

package tensor

// Wrappers for the amd64 vector-helper assembly: the one-pass min/max
// reduction and the Uniform8 quantize map (microkernel_amd64.s), ReLU,
// ReLUGrad and the 2×2 max-pool window scan (vec_amd64.s). The element-wise
// and reduction forms process full vector blocks only; short inputs and
// ragged tails fall back to the scalar Go forms, which are bit-identical
// (min/max are order-free, the quantize map is element-wise with the same
// unfused op sequence, ReLU only compares and selects). The pooling forms
// mask their own tails: a pooled row is rarely a whole vector wide.

// minMaxAVX2 reduces n ≥ 8 elements to 4-lane partial minima (out[0:4]) and
// maxima (out[4:8]).
//
//go:noescape
func minMaxAVX2(x *float32, n int, out *[8]float32)

// minMaxAVX512 is minMaxAVX2 for n ≥ 16 with 16-lane accumulators.
//
//go:noescape
func minMaxAVX512(x *float32, n int, out *[8]float32)

//go:noescape
func quantize8AVX2(v, out *float32, n int, lo, scale, inv float32)

//go:noescape
func quantize8AVX512(v, out *float32, n int, lo, scale, inv float32)

func minMaxAVX2Wrap(x []float32) (lo, hi float32) {
	if len(x) < 8 {
		return minMaxGo(x)
	}
	var out [8]float32
	minMaxAVX2(&x[0], len(x), &out)
	return reduceMinMax4(&out)
}

func minMaxAVX512Wrap(x []float32) (lo, hi float32) {
	if len(x) < 16 {
		return minMaxGo(x)
	}
	var out [8]float32
	minMaxAVX512(&x[0], len(x), &out)
	return reduceMinMax4(&out)
}

func reduceMinMax4(out *[8]float32) (lo, hi float32) {
	lo, hi = out[0], out[4]
	for i := 1; i < 4; i++ {
		if out[i] < lo {
			lo = out[i]
		}
		if out[4+i] > hi {
			hi = out[4+i]
		}
	}
	return lo, hi
}

func quantize8AVX2Wrap(v, out []float32, lo, scale, inv float32) {
	n := len(v) &^ 7
	if n > 0 {
		quantize8AVX2(&v[0], &out[0], n, lo, scale, inv)
	}
	quantize8Go(v[n:], out[n:], lo, scale, inv)
}

func quantize8AVX512Wrap(v, out []float32, lo, scale, inv float32) {
	n := len(v) &^ 15
	if n > 0 {
		quantize8AVX512(&v[0], &out[0], n, lo, scale, inv)
	}
	quantize8Go(v[n:], out[n:], lo, scale, inv)
}

//go:noescape
func reluAVX2(dst, x *float32, n int)

//go:noescape
func reluAVX512(dst, x *float32, n int)

//go:noescape
func reluGradAVX2(dx, dy, y *float32, n int)

//go:noescape
func reluGradAVX512(dx, dy, y *float32, n int)

// maxPool2x2AVX2 and maxPool2x2AVX512 scan n ≥ 1 windows whose taps are
// r0[2j], r0[2j+1], r1[2j], r1[2j+1]; arg may be nil.
//
//go:noescape
func maxPool2x2AVX2(out *float32, arg *int32, r0, r1 *float32, n int, base, w int32)

//go:noescape
func maxPool2x2AVX512(out *float32, arg *int32, r0, r1 *float32, n int, base, w int32)

func reluAVX2Wrap(dst, x []float32) {
	n := len(x) &^ 7
	if n > 0 {
		reluAVX2(&dst[0], &x[0], n)
	}
	reluGo(dst[n:], x[n:])
}

func reluAVX512Wrap(dst, x []float32) {
	n := len(x) &^ 15
	if n > 0 {
		reluAVX512(&dst[0], &x[0], n)
	}
	reluGo(dst[n:], x[n:])
}

func reluGradAVX2Wrap(dx, dy, y []float32) {
	n := len(dy) &^ 7
	if n > 0 {
		reluGradAVX2(&dx[0], &dy[0], &y[0], n)
	}
	reluGradGo(dx[n:], dy[n:], y[n:])
}

func reluGradAVX512Wrap(dx, dy, y []float32) {
	n := len(dy) &^ 15
	if n > 0 {
		reluGradAVX512(&dx[0], &dy[0], &y[0], n)
	}
	reluGradGo(dx[n:], dy[n:], y[n:])
}

// argPtr is the assembly's view of an optional argmax row.
func argPtr(arg []int32) *int32 {
	if arg == nil {
		return nil
	}
	return &arg[0]
}

func maxPool2x2AVX2Wrap(out []float32, arg []int32, src []float32, w int, base int32) {
	maxPool2x2AVX2(&out[0], argPtr(arg), &src[0], &src[w], len(out), base, int32(w))
}

func maxPool2x2AVX512Wrap(out []float32, arg []int32, src []float32, w int, base int32) {
	maxPool2x2AVX512(&out[0], argPtr(arg), &src[0], &src[w], len(out), base, int32(w))
}
