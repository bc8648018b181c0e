//go:build amd64

package tensor

// Runtime CPU-feature detection for the amd64 kernel tiers, via raw CPUID —
// the stdlib's internal/cpu is unimportable and the module is dependency-
// free by policy, so the handful of leaves the dispatch needs are read
// directly (cpu_amd64.s). OS support for the wide register states is
// checked through XGETBV exactly as internal/cpu does: a kernel that does
// not context-switch ZMM state must not be handed AVX-512 code.

// cpuidRaw executes CPUID with the given leaf/subleaf (cpu_amd64.s).
func cpuidRaw(op, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the XSAVE feature-enabled mask (cpu_amd64.s).
func xgetbv0() (eax, edx uint32)

// cpuFeatures is the feature set the tier selection consults.
type cpuFeatures struct {
	avx2, fma, f16c        bool
	avx512f, avx512dq      bool
	avx512bw, avx512vl     bool
	avx512bf16, avx512fp16 bool
	osYMM, osZMM           bool // OS saves the wide register states
}

// detectCPU reads the CPUID leaves backing cpuFeatures.
func detectCPU() cpuFeatures {
	var f cpuFeatures
	maxLeaf, _, _, _ := cpuidRaw(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	f.fma = ecx1&(1<<12) != 0
	f.f16c = ecx1&(1<<29) != 0
	osxsave := ecx1&(1<<27) != 0
	hasAVX := ecx1&(1<<28) != 0
	if osxsave {
		xlo, _ := xgetbv0()
		f.osYMM = xlo&0x6 == 0x6              // XMM + YMM state
		f.osZMM = f.osYMM && xlo&0xe0 == 0xe0 // opmask + ZMM0-15 hi + ZMM16-31
	}
	if maxLeaf < 7 {
		return f
	}
	_, ebx7, _, edx7 := cpuidRaw(7, 0)
	f.avx2 = hasAVX && ebx7&(1<<5) != 0
	f.avx512f = ebx7&(1<<16) != 0
	f.avx512dq = ebx7&(1<<17) != 0
	f.avx512bw = ebx7&(1<<30) != 0
	f.avx512vl = ebx7&(1<<31) != 0
	f.avx512fp16 = edx7&(1<<23) != 0
	eax71, _, _, _ := cpuidRaw(7, 1)
	f.avx512bf16 = eax71&(1<<5) != 0
	return f
}

// detectKernels builds the tier list the CPU can execute, widest first.
// SSE2 is architecturally guaranteed on amd64, so the list always ends with
// the sse2 and generic tiers.
func detectKernels() []*kernel {
	f := detectCPU()
	var ks []*kernel
	if f.avx512f && f.avx512dq && f.avx512bw && f.avx512vl && f.osZMM {
		k := &kernel{
			tier:     "avx512",
			bl:       blockingFor(14, 16),
			kern:     microKernelAVX512Wrap,
			kernBF16: microKernelBF16Wrap,
			dot:      dotAVX512Wrap,
			minMax:   minMaxAVX512Wrap,
			quant8:   quantize8AVX512Wrap,
			relu:     reluAVX512Wrap,
			reluGrad: reluGradAVX512Wrap,
			pool2x2:  maxPool2x2AVX512Wrap,
		}
		// fp16 storage decodes through VCVTPH2PS; gate it on the CPU
		// actually advertising half-precision conversion support.
		if f.f16c || f.avx512fp16 {
			k.kernFP16 = microKernelFP16Wrap
		} else {
			k.kernFP16 = microKernelLPGo(14, 16, fp16ToF32)
		}
		ks = append(ks, k)
	}
	if f.avx2 && f.fma && f.osYMM {
		ks = append(ks, &kernel{
			tier:     "avx2",
			bl:       blockingFor(8, 8),
			kern:     microKernelAVX2Wrap,
			kernBF16: microKernelLPGo(8, 8, bf16ToF32),
			kernFP16: microKernelLPGo(8, 8, fp16ToF32),
			dot:      dotAVX2Wrap,
			minMax:   minMaxAVX2Wrap,
			quant8:   quantize8AVX2Wrap,
			relu:     reluAVX2Wrap,
			reluGrad: reluGradAVX2Wrap,
			pool2x2:  maxPool2x2AVX2Wrap,
		})
	}
	ks = append(ks, &kernel{
		tier:     "sse2",
		bl:       blockingFor(4, 8),
		kern:     microKernelSSEWrap,
		kernBF16: microKernelLPGo(4, 8, bf16ToF32),
		kernFP16: microKernelLPGo(4, 8, fp16ToF32),
		dot:      dotUnroll,
		minMax:   minMaxGo,
		quant8:   quantize8Go,
		relu:     reluGo,
		reluGrad: reluGradGo,
		pool2x2:  maxPool2x2Go,
	}, genericKernel())
	return ks
}
