package tensor

import (
	"fmt"
	"os"
	"strings"
)

// The micro-kernel dispatch. One kernel tier is selected at init from the
// CPU's feature set (cpu_*.go) and drives every packed GEMM in the process:
// its register tile (MR×NR), the cache blocks derived from it, the fp32
// micro-kernel, the low-precision (bf16/fp16 storage, fp32 accumulate)
// micro-kernels, and the vector helpers (dot, min/max, quantize, ReLU and the
// 2×2 max-pool window kernel) that ride behind the same feature gate.
//
// Tiers, widest first:
//
//	avx512  16-lane 14×16 FMA tile   amd64 with AVX-512 F/DQ/BW/VL
//	avx2     8-lane  8×8  FMA tile   amd64 with AVX2+FMA
//	sse2     4-lane  4×8  mul+add    every amd64 (GOAMD64=v1 baseline)
//	neon     4-lane  8×8  FMA tile   every arm64
//	generic  pure Go 4×8  mul+add    everything else (and forced fallback)
//
// Selection honors GODEBUG downgrades exactly like the runtime's own
// internal/cpu: GODEBUG=cpu.avx512f=off (or cpu.avx512=off) hides AVX-512,
// cpu.avx2=off hides AVX2 and everything above it, cpu.fma=off and
// cpu.avx=off hide both FMA tiers, cpu.sse2=off / cpu.neon=off force the
// portable generic kernel, and cpu.all=off disables every optional tier.
// KernelTier reports the decision.

// kernel is one dispatch tier: its identity, blocking, and kernels. kern
// computes an MR×NR register tile from packed fp32 panels; kernBF16 and
// kernFP16 do the same from packed uint16 panels (bf16 / IEEE half storage)
// with fp32 accumulation. dot is the tier's vector dot product; the remaining
// fields are the vec.go helpers, each bit-identical to its portable Go form.
type kernel struct {
	tier     string
	bl       Blocking
	kern     func(ap, bp []float32, kc int, t *kernTile)
	kernBF16 func(ap, bp []uint16, kc int, t *kernTile)
	kernFP16 func(ap, bp []uint16, kc int, t *kernTile)
	dot      func(a, b []float32) float32
	minMax   func(x []float32) (lo, hi float32)
	quant8   func(v, out []float32, lo, scale, inv float32)
	relu     func(dst, x []float32)
	reluGrad func(dx, dy, y []float32)
	// pool2x2 is the 2×2 stride-2 case of MaxPoolRow (row pitch w).
	pool2x2 func(out []float32, arg []int32, src []float32, w int, base int32)
}

// active is the selected tier. It is written once at init (and by the
// test-only forceKernel); every GEMM entry point reads it. Switching tiers
// concurrently with running GEMMs is not supported.
var active *kernel

// availableKernels lists every tier the running CPU can execute, widest
// first. The GODEBUG-filtered head of this list becomes active.
var availableKernels []*kernel

func init() {
	availableKernels = detectKernels()
	active = pickKernel(availableKernels, godebugCPUOff())
}

// KernelTier reports the active GEMM micro-kernel tier: "avx512", "avx2",
// "sse2", "neon" or "generic". The tier is fixed at init from the CPU's
// feature set and the GODEBUG cpu.* downgrades.
func KernelTier() string { return active.tier }

// KernelBlocking reports the active tier's cache-blocking parameters.
func KernelBlocking() Blocking { return active.bl }

// pickKernel returns the first available tier that survives the GODEBUG
// downgrade set. The generic tier is always constructible, so the fallback
// is total.
func pickKernel(avail []*kernel, off map[string]bool) *kernel {
	for _, k := range avail {
		if kernelDisabled(k.tier, off) {
			continue
		}
		return k
	}
	return genericKernel()
}

// kernelDisabled applies the GODEBUG cpu.* flags to a tier, including the
// architectural dependencies (AVX-512 implies AVX2 implies AVX; both FMA
// tiers need FMA).
func kernelDisabled(tier string, off map[string]bool) bool {
	if off["all"] {
		return tier != "generic"
	}
	switch tier {
	case "avx512":
		return off["avx512f"] || off["avx512"] || off["avx2"] || off["avx"] || off["fma"]
	case "avx2":
		return off["avx2"] || off["avx"] || off["fma"]
	case "sse2":
		return off["sse2"]
	case "neon":
		return off["neon"]
	}
	return false
}

// godebugCPUOff parses the GODEBUG environment variable for cpu.<feature>=off
// settings, mirroring the runtime's internal/cpu: the returned set holds the
// lower-cased feature names explicitly disabled.
func godebugCPUOff() map[string]bool {
	return parseCPUOff(os.Getenv("GODEBUG"))
}

// parseCPUOff extracts the cpu.<feature>=off set from a GODEBUG string.
func parseCPUOff(godebug string) map[string]bool {
	off := map[string]bool{}
	for _, kv := range strings.Split(godebug, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || v != "off" {
			continue
		}
		if feat, ok := strings.CutPrefix(k, "cpu."); ok {
			off[strings.ToLower(feat)] = true
		}
	}
	return off
}

// forceKernel switches the active tier by name and returns a restore
// function. Test-only: callers must not have GEMMs in flight. Only tiers in
// availableKernels (plus generic) can be forced — a wider tier than the CPU
// supports is refused.
func forceKernel(tier string) (restore func(), err error) {
	prev := active
	if tier == "generic" {
		active = genericKernel()
		return func() { active = prev }, nil
	}
	for _, k := range availableKernels {
		if k.tier == tier {
			active = k
			return func() { active = prev }, nil
		}
	}
	return nil, fmt.Errorf("tensor: kernel tier %q not available on this CPU", tier)
}

// genericKernel is the portable pure-Go tier, constructible on every
// architecture: the 4×8 mul+add register tile, portable low-precision
// kernels, and the unrolled dot product.
func genericKernel() *kernel {
	return &kernel{
		tier:     "generic",
		bl:       blockingFor(4, 8),
		kern:     microKernelGo,
		kernBF16: microKernelLPGo(4, 8, bf16ToF32),
		kernFP16: microKernelLPGo(4, 8, fp16ToF32),
		dot:      dotUnroll,
		minMax:   minMaxGo,
		quant8:   quantize8Go,
		relu:     reluGo,
		reluGrad: reluGradGo,
		pool2x2:  maxPool2x2Go,
	}
}

// microKernelGo is the portable register-tiled micro-kernel and the bitwise
// reference for the SSE2 assembly one: t[i*8+j] = Σ_p ap[p*4+i]·bp[p*8+j],
// a 4×8 tile at stride 8. It processes rows in pairs so the sixteen live
// accumulators of a strip fit the register file without spilling; summation
// order over p is identical for every lane, which is what makes the two
// implementations interchangeable without perturbing the determinism
// contract.
func microKernelGo(ap, bp []float32, kc int, t *kernTile) {
	const mr, nr = 4, 8
	if kc == 0 {
		for i := range t[:mr*nr] {
			t[i] = 0
		}
		return
	}
	for i := 0; i < mr; i += 2 {
		var c00, c01, c02, c03, c04, c05, c06, c07 float32
		var c10, c11, c12, c13, c14, c15, c16, c17 float32
		ai, bi := i, 0
		for p := 0; p < kc; p++ {
			a1, a0 := ap[ai+1], ap[ai]
			b7, b6, b5, b4 := bp[bi+7], bp[bi+6], bp[bi+5], bp[bi+4]
			b3, b2, b1, b0 := bp[bi+3], bp[bi+2], bp[bi+1], bp[bi]
			ai += mr
			bi += nr
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c04 += a0 * b4
			c05 += a0 * b5
			c06 += a0 * b6
			c07 += a0 * b7
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c14 += a1 * b4
			c15 += a1 * b5
			c16 += a1 * b6
			c17 += a1 * b7
		}
		t[i*nr+0], t[i*nr+1], t[i*nr+2], t[i*nr+3] = c00, c01, c02, c03
		t[i*nr+4], t[i*nr+5], t[i*nr+6], t[i*nr+7] = c04, c05, c06, c07
		t[(i+1)*nr+0], t[(i+1)*nr+1], t[(i+1)*nr+2], t[(i+1)*nr+3] = c10, c11, c12, c13
		t[(i+1)*nr+4], t[(i+1)*nr+5], t[(i+1)*nr+6], t[(i+1)*nr+7] = c14, c15, c16, c17
	}
}

// microKernelLPGo builds the portable low-precision micro-kernel for an
// mr×nr tile: packed uint16 panels are decoded element-wise (bf16 or IEEE
// half) and accumulated in fp32 with plain mul+add, k-ordered. It is the
// fallback for tiers without a low-precision assembly kernel and the
// semantic reference for the ones with.
func microKernelLPGo(mr, nr int, decode func(uint16) float32) func(ap, bp []uint16, kc int, t *kernTile) {
	return func(ap, bp []uint16, kc int, t *kernTile) {
		for i := range t[:mr*nr] {
			t[i] = 0
		}
		var bd [maxNR]float32
		for p := 0; p < kc; p++ {
			av := ap[p*mr : p*mr+mr]
			bv := bp[p*nr : p*nr+nr]
			for j, bb := range bv {
				bd[j] = decode(bb)
			}
			for i, ab := range av {
				a := decode(ab)
				row := t[i*nr : i*nr+nr]
				for j := range row {
					row[j] += a * bd[j]
				}
			}
		}
	}
}

// dotUnroll is the unrolled-accumulator dot product shared by MatVec and the
// small vector paths on tiers without an assembly dot: four independent
// chains hide the floating-point add latency that a single running sum
// serializes on. The final reduction order ((s0+s1)+(s2+s3))+tail is fixed,
// so results are deterministic. The unroll width is its own constant — it
// matches the add-latency×throughput product, not the register-tile height.
func dotUnroll(a, b []float32) float32 {
	const lanes = 4
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+lanes <= n; i += lanes {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	var tail float32
	for ; i < n; i++ {
		tail += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3) + tail
}
