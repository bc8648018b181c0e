// Package tensor implements the dense float32 tensor and BLAS-like kernels
// that every other package in this repository builds on. It is the stand-in
// for the cuBLAS/cuDNN/MKL substrate used by the paper: shapes are dense and
// row-major, and every matrix product funnels into one packed,
// register-tiled GEMM engine (gemm.go, pack.go, microkernel.go) built on
// the BLIS blocking hierarchy — MC/KC/NC cache blocks around an MR×NR
// register tile, with operand transposition absorbed at pack time.
//
// # Kernel tiers
//
// The micro-kernel is selected once at init from the CPU's feature set,
// honoring the runtime's GODEBUG cpu.*=off downgrades (KernelTier reports
// the decision):
//
//	tier     tile    ISA                          arch
//	avx512   14×16   AVX-512 F/DQ/BW/VL, FMA      amd64
//	avx2      8×8    AVX2 + FMA                   amd64
//	sse2      4×8    SSE2 (GOAMD64=v1 baseline)   amd64
//	neon      8×8    NEON (armv8 baseline)        arm64
//	generic   4×8    pure Go                      everywhere
//
// All tiers share the same cache-blocking derivation (blocking.go) from the
// L1/L2 budgets that also size the Transpose tile and the Im2col tap
// blocking, so a tier change can never leave the packing, transposition and
// unrolling layers disagreeing about what fits where.
//
// # Determinism contract
//
// Reproducibility is layered, strongest first:
//
//   - Within a tier, every result is bit-deterministic: the parallel fan-out
//     partitions only output rows, each element keeps a fixed k-ordered
//     summation, and KC is identical across tiers, so pool width, scheduling
//     and serial mode never change a bit. This is the property the
//     distributed-training determinism tests build on.
//   - The sse2 and generic tiers are bit-identical to each other: both
//     compute unfused mul-then-add in the same order, so the assembly can be
//     swapped for the pure-Go reference without perturbing golden values.
//   - The FMA tiers (avx512, avx2, neon) differ from the unfused pair — and
//     from each other across tile widths — by bounded ULP-level rounding:
//     fused multiply-add keeps the infinitely-precise product, so each tier
//     is its own deterministic universe, ULP-close to the rest.
//   - MinMax and QuantizeUniform8 are bit-identical across all tiers
//     (order-free reduction; element-wise map with a fixed unfused op
//     sequence), which is why the gradient-compression package may ride the
//     vector dispatch without any trajectory risk. Dot32 is only
//     per-tier-deterministic, like the GEMMs.
//   - ReLU, ReLUGrad and MaxPoolRow — the non-GEMM layer kernels of
//     internal/nn — are bit-identical across all tiers too: they only compare
//     and select, never round. Their edge cases are part of the contract
//     (vec.go spells them out): ReLU sends -0 and NaN to +0; ReLUGrad passes
//     the gradient's bits where the forward output is positive and +0
//     elsewhere; MaxPoolRow scans a window row-major, the first of tied taps
//     wins, and a NaN tap never displaces a winner. A training step therefore
//     differs between tiers only through its GEMMs.
//
// # Low precision
//
// SetComputePrecision selects bf16 or fp16 storage for the packed GEMM
// operand panels: values are narrowed once at pack time and every
// accumulation stays fp32, mirroring mixed-precision training practice.
// The avx512 tier decodes in assembly; every other tier shares a portable
// decode-and-accumulate kernel. The determinism contract above applies
// per (tier, precision) pair.
package tensor
