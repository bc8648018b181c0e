//go:build arm64

package tensor

// Kernel tiers for arm64. Advanced SIMD (NEON) is part of the ARMv8-A
// baseline — every arm64 CPU has it — so no runtime feature probing is
// needed: the tier list is the NEON 8×8 FMA tile plus the portable generic
// fallback (reachable via GODEBUG=cpu.neon=off for A/B testing).
func detectKernels() []*kernel {
	return []*kernel{
		{
			tier:     "neon",
			bl:       blockingFor(8, 8),
			kern:     microKernelNEONWrap,
			kernBF16: microKernelLPGo(8, 8, bf16ToF32),
			kernFP16: microKernelLPGo(8, 8, fp16ToF32),
			dot:      dotUnroll,
			minMax:   minMaxGo,
			quant8:   quantize8Go,
			relu:     reluGo,
			reluGrad: reluGradGo,
			pool2x2:  maxPool2x2Go,
		},
		genericKernel(),
	}
}
