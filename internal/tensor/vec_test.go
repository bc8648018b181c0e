package tensor

import (
	"math"
	"testing"
)

// TestMinMaxBitIdenticalAcrossTiers pins the cross-tier contract of the
// vectorized reduction: min/max is order-independent, so every tier —
// including the assembly forms with their overlapped ragged-tail reads —
// must produce exactly the scalar answer, at every length around the vector
// widths.
func TestMinMaxBitIdenticalAcrossTiers(t *testing.T) {
	g := NewRNG(52)
	lengths := []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000, 1023}
	for _, n := range lengths {
		x := make([]float32, n)
		g.FillNormal(x, 0, 1)
		// Plant extremes off-lane to catch reduction mistakes.
		x[g.Intn(n)] = -37.5
		x[g.Intn(n)] = 41.25
		wantLo, wantHi := minMaxGo(x)
		forEachTier(t, func(t *testing.T) {
			lo, hi := MinMax(x)
			if lo != wantLo || hi != wantHi {
				t.Errorf("n=%d: got (%v, %v) want (%v, %v)", n, lo, hi, wantLo, wantHi)
			}
		})
	}
}

// TestQuantizeUniform8BitIdenticalAcrossTiers pins the element-wise map:
// same unfused op sequence on every tier, so outputs are bit-identical to
// the scalar reference, including clamp edges and the in-place (aliased)
// form.
func TestQuantizeUniform8BitIdenticalAcrossTiers(t *testing.T) {
	g := NewRNG(53)
	for _, n := range []int{1, 7, 8, 9, 16, 17, 33, 100, 1000} {
		v := make([]float32, n)
		g.FillNormal(v, 0, 2)
		lo, hi := minMaxGo(v)
		scale := (hi - lo) / 255
		if scale == 0 {
			continue
		}
		inv := 1 / scale
		want := make([]float32, n)
		quantize8Go(v, want, lo, scale, inv)
		forEachTier(t, func(t *testing.T) {
			out := make([]float32, n)
			QuantizeUniform8(v, out, lo, scale, inv)
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("n=%d elem %d: got %v want %v (in %v)", n, i, out[i], want[i], v[i])
				}
			}
			// Aliased form: out == v.
			vc := append([]float32(nil), v...)
			QuantizeUniform8(vc, vc, lo, scale, inv)
			for i := range vc {
				if vc[i] != want[i] {
					t.Fatalf("n=%d aliased elem %d: got %v want %v", n, i, vc[i], want[i])
				}
			}
		})
	}
}

// TestDot32PerTier checks the dispatched dot product against a float64
// reference on every tier (tier-deterministic, not cross-tier identical)
// and pins within-tier determinism across repeated calls.
func TestDot32PerTier(t *testing.T) {
	g := NewRNG(54)
	for _, n := range []int{0, 1, 3, 8, 16, 31, 32, 33, 64, 100, 1000} {
		a := make([]float32, n)
		b := make([]float32, n)
		g.FillNormal(a, 0, 1)
		g.FillNormal(b, 0, 1)
		var want float64
		for i := range a {
			want += float64(a[i]) * float64(b[i])
		}
		forEachTier(t, func(t *testing.T) {
			got := Dot32(a, b)
			if math.Abs(float64(got)-want) > 1e-4*math.Sqrt(float64(n)+1) {
				t.Errorf("n=%d: got %v want %v", n, got, want)
			}
			if again := Dot32(a, b); again != got {
				t.Errorf("n=%d: dot not deterministic within tier: %v vs %v", n, got, again)
			}
		})
	}
}

// saltedVec fills n floats with a few distinct normals (so ties are common)
// salted with ±0, ±Inf and NaN — every edge the compare-and-select kernels
// document.
func saltedVec(g *RNG, n int) []float32 {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	salt := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, nan, -nan, 1, -1, 0.5, -0.5, 2}
	x := make([]float32, n)
	for i := range x {
		if g.Intn(3) == 0 {
			x[i] = float32(g.Intn(9)-4) / 4
		} else {
			x[i] = salt[g.Intn(len(salt))]
		}
	}
	return x
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestReLUBitIdenticalAcrossTiers compares ReLU and ReLUGrad on every tier
// with the branching scalar loops they replaced, at every length around the
// vector widths (so each block/tail split is hit), in place and out of place.
func TestReLUBitIdenticalAcrossTiers(t *testing.T) {
	g := NewRNG(55)
	for n := 0; n <= 67; n++ {
		x, dy := saltedVec(g, n), saltedVec(g, n)
		want := make([]float32, n)
		wantGrad := make([]float32, n)
		for i, v := range x {
			if v > 0 {
				want[i] = v
				wantGrad[i] = dy[i]
			}
		}
		forEachTier(t, func(t *testing.T) {
			got := make([]float32, n)
			ReLU(got, x)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d: ReLU(%v) = %v, want %v", n, x[i], got[i], want[i])
			}
			grad := make([]float32, n)
			ReLUGrad(grad, dy, got)
			if i := sameBits(grad, wantGrad); i >= 0 {
				t.Fatalf("n=%d: ReLUGrad(dy %v, y %v) = %v, want %v", n, dy[i], got[i], grad[i], wantGrad[i])
			}
			inPlace := append([]float32(nil), x...)
			ReLU(inPlace, inPlace)
			gradInPlace := append([]float32(nil), dy...)
			ReLUGrad(gradInPlace, gradInPlace, got)
			if sameBits(inPlace, want) >= 0 || sameBits(gradInPlace, wantGrad) >= 0 {
				t.Fatalf("n=%d: aliased form differs", n)
			}
		})
	}
}

// TestMaxPoolRowBitIdenticalAcrossTiers compares MaxPoolRow on every tier
// with a plain first-tap-then-strictly-greater window scan: winners and
// their positions, with and without an argmax row, for the 2×2/2 kernel the
// tiers specialise and for geometries only the portable scan serves.
func TestMaxPoolRowBitIdenticalAcrossTiers(t *testing.T) {
	g := NewRNG(56)
	for _, geo := range []struct{ k, stride int }{{2, 2}, {1, 1}, {2, 1}, {2, 3}, {3, 1}, {3, 2}, {4, 3}} {
		for n := 0; n <= 67; n++ {
			span := geo.k
			if n > 0 {
				span += (n - 1) * geo.stride
			}
			w := span + g.Intn(3) // row pitch ≥ the taps one row supplies
			src := saltedVec(g, (geo.k-1)*w+span)
			const base = 1000
			want := make([]float32, n)
			wantArg := make([]int32, n)
			for j := range want {
				at := -1
				var best float32
				for ky := 0; ky < geo.k; ky++ {
					for kx := 0; kx < geo.k; kx++ {
						p := ky*w + j*geo.stride + kx
						if v := src[p]; at < 0 || v > best {
							best, at = v, p
						}
					}
				}
				want[j], wantArg[j] = best, int32(base+at)
			}
			forEachTier(t, func(t *testing.T) {
				got := make([]float32, n+1)
				arg := make([]int32, n+1)
				got[n], arg[n] = 7, 7 // canaries past the row
				MaxPoolRow(got[:n], arg[:n], src, w, geo.k, geo.stride, base)
				noArg := make([]float32, n)
				MaxPoolRow(noArg, nil, src, w, geo.k, geo.stride, base)
				if got[n] != 7 || arg[n] != 7 {
					t.Fatalf("%d/%d n=%d: wrote past the row", geo.k, geo.stride, n)
				}
				if i := sameBits(got[:n], want); i >= 0 {
					t.Fatalf("%d/%d n=%d window %d: got %v want %v", geo.k, geo.stride, n, i, got[i], want[i])
				}
				if sameBits(noArg, want) >= 0 {
					t.Fatalf("%d/%d n=%d: result differs without an argmax row", geo.k, geo.stride, n)
				}
				for i := range wantArg {
					if arg[i] != wantArg[i] {
						t.Fatalf("%d/%d n=%d window %d: winner at %d, want %d", geo.k, geo.stride, n, i, arg[i], wantArg[i])
					}
				}
			})
		}
	}
}
