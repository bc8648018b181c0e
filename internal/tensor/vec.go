package tensor

import "math"

// Vectorized straggler kernels behind the same feature gate as the GEMM
// tiers: the dot product driving MatVec, the reduction/map loops of
// internal/quant's Uniform8 codec, and the non-GEMM layer kernels of
// internal/nn (ReLU forward and backward, the max-pool window scan). Each
// has a portable Go form; the AVX2 and AVX-512 tiers substitute assembly
// (microkernel_amd64.s, vec_amd64.s) that is bit-identical where the
// operation is order-independent or only compares and selects (min/max, the
// element-wise quantize map, ReLU, ReLUGrad, MaxPoolRow) and
// tier-deterministic where it is not (dot).
//
// Edge cases of the bit-identical layer kernels, the same on every tier:
//
//	ReLU        x > 0 keeps x's bits; everything else — negatives, -0, NaN —
//	            becomes +0.
//	ReLUGrad    y > 0 keeps dy's bits (a -0 or NaN gradient passes through);
//	            everything else becomes +0.
//	MaxPoolRow  the first tap of the row-major window scan is the initial
//	            winner and a later tap replaces it only if strictly greater:
//	            the first of tied taps wins (+0 and -0 tie), a NaN tap never
//	            displaces a winner, and a NaN first tap is never displaced.

// Dot returns the dot product of equal-length vectors through the active
// tier's kernel: a fixed lane-split accumulation, deterministic per tier
// (the FMA tiers fuse multiply-add and split lanes wider than the portable
// unroll, so values may differ across tiers within normal rounding).
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot32 length mismatch")
	}
	return active.dot(a, b)
}

// MinMax returns the minimum and maximum of x in one pass. Results are
// bit-identical across tiers — min/max are order-independent — and x must
// be non-empty.
func MinMax(x []float32) (lo, hi float32) {
	if len(x) == 0 {
		panic("tensor: MinMax of empty vector")
	}
	return active.minMax(x)
}

// QuantizeUniform8 maps v onto the 256 uniform levels lo + k·scale,
// k = clamp(round((v[i]-lo)·inv), 0, 255), writing reconstructions into
// out (which may alias v). inv is the caller's precomputed 1/scale — the
// quant codec derives it once per vector. The operation sequence is fixed
// and element-wise, so every tier produces bit-identical output.
func QuantizeUniform8(v, out []float32, lo, scale, inv float32) {
	if len(out) != len(v) {
		panic("tensor: QuantizeUniform8 length mismatch")
	}
	active.quant8(v, out, lo, scale, inv)
}

// ReLU writes the rectified x into dst (which may alias x).
func ReLU(dst, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: ReLU length mismatch")
	}
	active.relu(dst, x)
}

// ReLUGrad writes the ReLU backward pass into dx (which may alias dy): the
// upstream gradient dy where the forward output y is positive, zero
// elsewhere.
func ReLUGrad(dx, dy, y []float32) {
	if len(dx) != len(dy) || len(y) != len(dy) {
		panic("tensor: ReLUGrad length mismatch")
	}
	active.reluGrad(dx, dy, y)
}

// MaxPoolRow computes one output row of a max pool whose k×k windows all lie
// inside the image: out[j] is the maximum of src[ky*w+j*stride+kx] over
// ky, kx < k, scanned row-major, where src starts at the first window's first
// tap and w is the image's row pitch. When arg is non-nil it receives each
// winner's position, base plus its offset in src, so base is where src starts
// in whatever the caller indexes (a channel plane).
func MaxPoolRow(out []float32, arg []int32, src []float32, w, k, stride int, base int32) {
	n := len(out)
	if n == 0 {
		return
	}
	if arg != nil && len(arg) != n {
		panic("tensor: MaxPoolRow argmax length mismatch")
	}
	if k < 1 || stride < 1 || w < k || len(src) < (k-1)*w+(n-1)*stride+k {
		panic("tensor: MaxPoolRow window outside src")
	}
	if k == 2 && stride == 2 {
		active.pool2x2(out, arg, src, w, base)
		return
	}
	maxPoolRowGo(out, arg, src, w, k, stride, base)
}

// minMaxGo is the scalar min/max reduction.
func minMaxGo(x []float32) (lo, hi float32) {
	lo, hi = x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// quantize8Go is the scalar quantize-reconstruct map and the bitwise
// reference for the assembly forms: subtract, scale, +0.5, truncate, clamp,
// rescale — all unfused.
func quantize8Go(v, out []float32, lo, scale, inv float32) {
	for i, x := range v {
		level := int32((x-lo)*inv + 0.5)
		if level < 0 {
			level = 0
		} else if level > 255 {
			level = 255
		}
		out[i] = lo + float32(level)*scale
	}
}

// gtMask is all ones where a > b and zero elsewhere (a ≤ b, or either NaN).
// The compiler lowers it to a compare and a conditional move: selecting by
// mask costs the same whatever the data, where a branch on the sign of a
// pre-activation mispredicts about every other element.
func gtMask(a, b float32) uint32 {
	var m uint32
	if a > b {
		m = ^uint32(0)
	}
	return m
}

// reluGo is the branch-free portable ReLU and the bitwise reference for the
// assembly forms.
func reluGo(dst, x []float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Float32frombits(math.Float32bits(v) & gtMask(v, 0))
	}
}

// reluGradGo is the branch-free portable ReLU backward and the bitwise
// reference for the assembly forms.
func reluGradGo(dx, dy, y []float32) {
	dx, y = dx[:len(dy)], y[:len(dy)]
	for i, g := range dy {
		dx[i] = math.Float32frombits(math.Float32bits(g) & gtMask(y[i], 0))
	}
}

// maxTap folds one window tap into the running winner without a branch: the
// value and its position are selected by the mask of v > best, so ties keep
// the earlier tap and a NaN on either side keeps the current winner.
func maxTap(best float32, at int32, v float32, vAt int32) (float32, int32) {
	m := gtMask(v, best)
	b := math.Float32bits(best)&^m | math.Float32bits(v)&m
	return math.Float32frombits(b), at&^int32(m) | vAt&int32(m)
}

// maxPoolRowGo is the portable in-bounds window scan for any kernel and
// stride, on every tier.
func maxPoolRowGo(out []float32, arg []int32, src []float32, w, k, stride int, base int32) {
	for j := range out {
		x0 := j * stride
		best, at := src[x0], int32(x0)
		for ky := 0; ky < k; ky++ {
			off := ky*w + x0
			for kx, v := range src[off : off+k] {
				best, at = maxTap(best, at, v, int32(off+kx))
			}
		}
		out[j] = best
		if arg != nil {
			arg[j] = base + at
		}
	}
}

// maxPool2x2Go is the portable 2×2 stride-2 window scan and the bitwise
// reference for the assembly forms.
func maxPool2x2Go(out []float32, arg []int32, src []float32, w int, base int32) {
	r0, r1 := src[:2*len(out)], src[w:w+2*len(out)]
	for j := range out {
		at := int32(2 * j)
		best, win := maxTap(r0[2*j], at, r0[2*j+1], at+1)
		best, win = maxTap(best, win, r1[2*j], at+int32(w))
		best, win = maxTap(best, win, r1[2*j+1], at+int32(w)+1)
		out[j] = best
		if arg != nil {
			arg[j] = base + win
		}
	}
}
