// AVX2+FMA syrkKernel for syrkUpperInto: eight simultaneous dot
// products of a 2×4 row block, vectorised four doubles wide. The
// portable kernel, syrkDot2x4Go in syrk.go, computes the same bits;
// syrk_amd64.go installs this one at init when its CPUID probe confirms
// AVX2, FMA and OS-enabled YMM state.

#include "textflag.h"

// func syrkDot2x4AVX2(wi0, wi1, w0, w1, w2, w3 []float64) [8]float64
//
// Covers the first len(wi0)&^3 elements (the caller adds the rest).
// Vector lane k accumulates t ≡ k (mod 4); each result is the four lane
// partials combined (l0+l2)+(l1+l3), the order syrkDot2x4Go uses.
TEXT ·syrkDot2x4AVX2(SB), NOSPLIT, $0-208
	MOVQ wi0_base+0(FP), SI
	MOVQ wi1_base+24(FP), DI
	MOVQ w0_base+48(FP), R8
	MOVQ w1_base+72(FP), R9
	MOVQ w2_base+96(FP), R10
	MOVQ w3_base+120(FP), R11
	MOVQ wi0_len+8(FP), CX
	LEAQ ret+144(FP), DX

	VXORPD Y0, Y0, Y0 // wi0·w0
	VXORPD Y1, Y1, Y1 // wi0·w1
	VXORPD Y2, Y2, Y2 // wi0·w2
	VXORPD Y3, Y3, Y3 // wi0·w3
	VXORPD Y4, Y4, Y4 // wi1·w0
	VXORPD Y5, Y5, Y5 // wi1·w1
	VXORPD Y6, Y6, Y6 // wi1·w2
	VXORPD Y7, Y7, Y7 // wi1·w3

	SHRQ $2, CX
	JZ   reduce

loop:
	VMOVUPD (SI), Y8 // wi0[t:t+4]
	VMOVUPD (DI), Y9 // wi1[t:t+4]
	VMOVUPD (R8), Y10
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4
	VMOVUPD (R9), Y11
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y11, Y9, Y5
	VMOVUPD (R10), Y12
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y12, Y9, Y6
	VMOVUPD (R11), Y13
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y13, Y9, Y7
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  loop

reduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD X8, X0, X0
	VHADDPD X0, X0, X0
	VMOVSD X0, (DX)
	VEXTRACTF128 $1, Y1, X8
	VADDPD X8, X1, X1
	VHADDPD X1, X1, X1
	VMOVSD X1, 8(DX)
	VEXTRACTF128 $1, Y2, X8
	VADDPD X8, X2, X2
	VHADDPD X2, X2, X2
	VMOVSD X2, 16(DX)
	VEXTRACTF128 $1, Y3, X8
	VADDPD X8, X3, X3
	VHADDPD X3, X3, X3
	VMOVSD X3, 24(DX)
	VEXTRACTF128 $1, Y4, X8
	VADDPD X8, X4, X4
	VHADDPD X4, X4, X4
	VMOVSD X4, 32(DX)
	VEXTRACTF128 $1, Y5, X8
	VADDPD X8, X5, X5
	VHADDPD X5, X5, X5
	VMOVSD X5, 40(DX)
	VEXTRACTF128 $1, Y6, X8
	VADDPD X8, X6, X6
	VHADDPD X6, X6, X6
	VMOVSD X6, 48(DX)
	VEXTRACTF128 $1, Y7, X8
	VADDPD X8, X7, X7
	VHADDPD X7, X7, X7
	VMOVSD X7, 56(DX)
	VZEROUPPER
	RET

// func cpuidLP(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLP(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvLP() (eax, edx uint32)
TEXT ·xgetbvLP(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
