//go:build amd64

#include "textflag.h"

// Assembly forms of the non-GEMM layer kernels of vec.go: ReLU, ReLUGrad and
// the 2×2 stride-2 max-pool window scan, for the AVX2 and AVX-512 tiers.
// They only compare and select, so each is bit-identical to its portable Go
// form; vec.go's header lists the edge cases they share.
//
// "x > 0" and "tap > best" are the ordered non-signalling greater-than
// (VCMPPS predicate 0x1E): false when either side is NaN, false for -0 > +0.

#define CMP_GT_OQ $0x1E

// func reluAVX2(dst, x *float32, n int)
//
// n is a multiple of 8; the Go wrapper runs the ragged tail.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPS Y1, Y1, Y1

reluAVX2Loop:
	VMOVUPS (SI), Y0
	VCMPPS  CMP_GT_OQ, Y1, Y0, Y2 // x > 0
	VANDPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     reluAVX2Loop
	VZEROUPPER
	RET

// func reluAVX512(dst, x *float32, n int)
//
// n is a multiple of 16.
TEXT ·reluAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VPXORQ Z1, Z1, Z1

reluAVX512Loop:
	VMOVUPS   (SI), Z0
	VCMPPS    CMP_GT_OQ, Z1, Z0, K1 // x > 0
	VMOVAPS.Z Z0, K1, Z0
	VMOVUPS   Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $16, CX
	JNZ       reluAVX512Loop
	VZEROUPPER
	RET

// func reluGradAVX2(dx, dy, y *float32, n int)
//
// n is a multiple of 8.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPS Y1, Y1, Y1

reluGradAVX2Loop:
	VMOVUPS (DX), Y0
	VCMPPS  CMP_GT_OQ, Y1, Y0, Y2 // y > 0
	VANDPS  (SI), Y2, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     reluGradAVX2Loop
	VZEROUPPER
	RET

// func reluGradAVX512(dx, dy, y *float32, n int)
//
// n is a multiple of 16.
TEXT ·reluGradAVX512(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	VPXORQ Z1, Z1, Z1

reluGradAVX512Loop:
	VMOVUPS   (DX), Z0
	VCMPPS    CMP_GT_OQ, Z1, Z0, K1 // y > 0
	VMOVUPS.Z (SI), K1, Z0
	VMOVUPS   Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $16, CX
	JNZ       reluGradAVX512Loop
	VZEROUPPER
	RET

// Lane tables of the pooling kernels. evenLanes/oddLanes pick the even and
// odd floats of a 32-float span (VPERMI2PS indices); evenLanes is also the
// offset of each lane's first tap from the block's. tailMask is eight set
// lanes then eight clear ones: loading 8 lanes at byte offset 32-4·c yields
// a mask of the first c lanes, 0 ≤ c ≤ 8.
DATA evenLanes<>+0(SB)/4, $0
DATA evenLanes<>+4(SB)/4, $2
DATA evenLanes<>+8(SB)/4, $4
DATA evenLanes<>+12(SB)/4, $6
DATA evenLanes<>+16(SB)/4, $8
DATA evenLanes<>+20(SB)/4, $10
DATA evenLanes<>+24(SB)/4, $12
DATA evenLanes<>+28(SB)/4, $14
DATA evenLanes<>+32(SB)/4, $16
DATA evenLanes<>+36(SB)/4, $18
DATA evenLanes<>+40(SB)/4, $20
DATA evenLanes<>+44(SB)/4, $22
DATA evenLanes<>+48(SB)/4, $24
DATA evenLanes<>+52(SB)/4, $26
DATA evenLanes<>+56(SB)/4, $28
DATA evenLanes<>+60(SB)/4, $30
GLOBL evenLanes<>(SB), RODATA|NOPTR, $64

DATA oddLanes<>+0(SB)/4, $1
DATA oddLanes<>+4(SB)/4, $3
DATA oddLanes<>+8(SB)/4, $5
DATA oddLanes<>+12(SB)/4, $7
DATA oddLanes<>+16(SB)/4, $9
DATA oddLanes<>+20(SB)/4, $11
DATA oddLanes<>+24(SB)/4, $13
DATA oddLanes<>+28(SB)/4, $15
DATA oddLanes<>+32(SB)/4, $17
DATA oddLanes<>+36(SB)/4, $19
DATA oddLanes<>+40(SB)/4, $21
DATA oddLanes<>+44(SB)/4, $23
DATA oddLanes<>+48(SB)/4, $25
DATA oddLanes<>+52(SB)/4, $27
DATA oddLanes<>+56(SB)/4, $29
DATA oddLanes<>+60(SB)/4, $31
GLOBL oddLanes<>(SB), RODATA|NOPTR, $64

DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func maxPool2x2AVX512(out *float32, arg *int32, r0, r1 *float32, n int, base, w int32)
//
// Sixteen windows per step: the two 32-float row spans are split into their
// even and odd lanes, which are the four taps of each window in scan order
// (r0 even, r0 odd, r1 even, r1 odd), and three masked moves fold them into
// the winner and its position. Every load and store is masked by the number
// of windows left, so the last step of a row is the same code as the others
// and a row narrower than a vector (every pool in the model zoo) still runs
// here. arg may be nil.
TEXT ·maxPool2x2AVX512(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), R8
	MOVQ r0+16(FP), SI
	MOVQ r1+24(FP), DX
	MOVQ n+32(FP), BX

	VMOVDQU32    evenLanes<>(SB), Z16
	VMOVDQU32    oddLanes<>(SB), Z17
	MOVL         base+40(FP), AX
	VPBROADCASTD AX, Z18
	VPADDD       Z16, Z18, Z18 // position of each window's first tap
	MOVL         $1, AX
	VPBROADCASTD AX, Z19       // +1: second tap
	MOVL         w+44(FP), AX
	VPBROADCASTD AX, Z20       // +w: third tap
	VPADDD       Z19, Z20, Z21 // +w+1: fourth tap
	MOVL         $32, AX
	VPBROADCASTD AX, Z22       // first taps advance 32 floats per step

maxPool2x2AVX512Loop:
	MOVQ  BX, CX
	CMPQ  CX, $16
	JLE   maxPool2x2AVX512Masks
	MOVQ  $16, CX

maxPool2x2AVX512Masks:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1 // the windows of this step
	ADDQ  CX, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2 // their taps in the first 16 floats of a span
	SHRQ  $16, AX
	KMOVW AX, K3 // and in the second 16

	VMOVUPS.Z (SI), K2, Z0
	VMOVUPS.Z 64(SI), K3, Z1
	VMOVUPS.Z (DX), K2, Z2
	VMOVUPS.Z 64(DX), K3, Z3
	VMOVAPS   Z16, Z4
	VPERMI2PS Z1, Z0, Z4 // tap 1 is the running winner
	VMOVAPS   Z17, Z5
	VPERMI2PS Z1, Z0, Z5 // tap 2
	VMOVAPS   Z16, Z6
	VPERMI2PS Z3, Z2, Z6 // tap 3
	VMOVAPS   Z17, Z7
	VPERMI2PS Z3, Z2, Z7 // tap 4
	VMOVDQA32 Z18, Z8    // the winner's position

	VCMPPS  CMP_GT_OQ, Z4, Z5, K4
	VMOVAPS Z5, K4, Z4
	VPADDD  Z19, Z18, K4, Z8
	VCMPPS  CMP_GT_OQ, Z4, Z6, K4
	VMOVAPS Z6, K4, Z4
	VPADDD  Z20, Z18, K4, Z8
	VCMPPS  CMP_GT_OQ, Z4, Z7, K4
	VMOVAPS Z7, K4, Z4
	VPADDD  Z21, Z18, K4, Z8

	VMOVUPS Z4, K1, (DI)
	TESTQ   R8, R8
	JZ      maxPool2x2AVX512Next
	VMOVDQU32 Z8, K1, (R8)
	ADDQ    $64, R8

maxPool2x2AVX512Next:
	VPADDD Z22, Z18, Z18
	ADDQ   $128, SI
	ADDQ   $128, DX
	ADDQ   $64, DI
	SUBQ   $16, BX
	JG     maxPool2x2AVX512Loop
	VZEROUPPER
	RET

// The AVX2 body of one step of eight windows: Y0/Y1 and Y2/Y3 hold the two
// 16-float row spans, Y12 the position of each window's first tap, Y13-Y15
// the +1, +w, +w+1 tap offsets. VSHUFPS gathers even (0x88) or odd (0xDD)
// floats within each 128-bit half and VPERMPD 0xD8 puts the halves in order.
// Leaves the winners in Y4 and their positions in Y8.
#define POOL2X2_AVX2_STEP \
	VSHUFPS  $0x88, Y1, Y0, Y4; \
	VPERMPD  $0xD8, Y4, Y4; \
	VSHUFPS  $0xDD, Y1, Y0, Y5; \
	VPERMPD  $0xD8, Y5, Y5; \
	VSHUFPS  $0x88, Y3, Y2, Y6; \
	VPERMPD  $0xD8, Y6, Y6; \
	VSHUFPS  $0xDD, Y3, Y2, Y7; \
	VPERMPD  $0xD8, Y7, Y7; \
	VMOVDQA  Y12, Y8; \
	VCMPPS   CMP_GT_OQ, Y4, Y5, Y9; \
	VBLENDVPS Y9, Y5, Y4, Y4; \
	VPADDD   Y13, Y12, Y10; \
	VBLENDVPS Y9, Y10, Y8, Y8; \
	VCMPPS   CMP_GT_OQ, Y4, Y6, Y9; \
	VBLENDVPS Y9, Y6, Y4, Y4; \
	VPADDD   Y14, Y12, Y10; \
	VBLENDVPS Y9, Y10, Y8, Y8; \
	VCMPPS   CMP_GT_OQ, Y4, Y7, Y9; \
	VBLENDVPS Y9, Y7, Y4, Y4; \
	VPADDD   Y15, Y12, Y10; \
	VBLENDVPS Y9, Y10, Y8, Y8

// func maxPool2x2AVX2(out *float32, arg *int32, r0, r1 *float32, n int, base, w int32)
//
// As maxPool2x2AVX512 with eight windows per step. Full steps use plain
// loads and stores; the last n mod 8 windows go through VMASKMOVPS, which
// neither reads nor writes (nor faults on) the lanes its mask clears.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), R8
	MOVQ r0+16(FP), SI
	MOVQ r1+24(FP), DX
	MOVQ n+32(FP), BX

	VMOVDQU      evenLanes<>(SB), Y11
	MOVL         base+40(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	VPADDD       Y11, Y12, Y12
	MOVL         $1, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         w+44(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VPADDD       Y13, Y14, Y15
	MOVL         $16, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11 // first taps advance 16 floats per step

maxPool2x2AVX2Loop:
	CMPQ BX, $8
	JL   maxPool2x2AVX2Tail
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS (DX), Y2
	VMOVUPS 32(DX), Y3
	POOL2X2_AVX2_STEP
	VMOVUPS Y4, (DI)
	TESTQ   R8, R8
	JZ      maxPool2x2AVX2Next
	VMOVDQU Y8, (R8)
	ADDQ    $32, R8

maxPool2x2AVX2Next:
	VPADDD Y11, Y12, Y12
	ADDQ   $64, SI
	ADDQ   $64, DX
	ADDQ   $32, DI
	SUBQ   $8, BX
	JMP    maxPool2x2AVX2Loop

maxPool2x2AVX2Tail:
	TESTQ BX, BX
	JZ    maxPool2x2AVX2Done
	LEAQ  tailMask<>+32(SB), AX
	// 2·n taps remain in each span: min(2n, 8) in its first half, the rest
	// in its second.
	LEAQ  (BX)(BX*1), CX
	MOVQ  $8, R9
	CMPQ  CX, R9
	CMOVQLT CX, R9
	SUBQ  R9, CX
	SHLQ  $2, R9
	SHLQ  $2, CX
	MOVQ  AX, R10
	SUBQ  R9, R10
	VMOVDQU (R10), Y9  // first-half tap mask
	MOVQ  AX, R10
	SUBQ  CX, R10
	VMOVDQU (R10), Y10 // second-half tap mask
	VMASKMOVPS (SI), Y9, Y0
	VMASKMOVPS 32(SI), Y10, Y1
	VMASKMOVPS (DX), Y9, Y2
	VMASKMOVPS 32(DX), Y10, Y3
	SHLQ  $2, BX
	SUBQ  BX, AX
	VMOVDQU (AX), Y11  // window mask (Y11's step is no longer needed)
	POOL2X2_AVX2_STEP
	VMASKMOVPS Y4, Y11, (DI)
	TESTQ R8, R8
	JZ    maxPool2x2AVX2Done
	VMASKMOVPS Y8, Y11, (R8)

maxPool2x2AVX2Done:
	VZEROUPPER
	RET
