#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 and YMM state the OS saves: CPUID.1:ECX OSXSAVE (bit 27) and AVX
// (bit 28), XCR0 XMM and YMM (bits 1, 2), CPUID.7.0:EBX AVX2 (bit 5). A
// CPU with OSXSAVE has leaf 0xD, so leaf 7 exists.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func rowAVX2(out, x *float64, n int, center float64, taps *tap)
//
// Four points per iteration with stencilRow's rounding sequence, every
// product rounded (no fused multiply-add): the centre product, then per
// group of four taps ((p_a + p_b) + p_c) + p_d added to it. Each
// instruction takes its first source where the compiled Go loop does -
// the grid value before the coefficient, the newer sum before the older
// - so even NaN payloads agree. Y3 holds the centre, Y4-Y15 the 12
// coefficients; tap offsets are reloaded per group.
TEXT ·rowAVX2(SB), NOSPLIT, $0-40
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD center+24(FP), Y3
	MOVQ         taps+32(FP), DX
	VBROADCASTSD 8(DX), Y4
	VBROADCASTSD 24(DX), Y5
	VBROADCASTSD 40(DX), Y6
	VBROADCASTSD 56(DX), Y7
	VBROADCASTSD 72(DX), Y8
	VBROADCASTSD 88(DX), Y9
	VBROADCASTSD 104(DX), Y10
	VBROADCASTSD 120(DX), Y11
	VBROADCASTSD 136(DX), Y12
	VBROADCASTSD 152(DX), Y13
	VBROADCASTSD 168(DX), Y14
	VBROADCASTSD 184(DX), Y15
	TESTQ        CX, CX
	JLE          done

loop:
	VMOVUPD (SI), Y0
	VMULPD  Y3, Y0, Y0

	MOVQ    0(DX), R8
	MOVQ    16(DX), R9
	MOVQ    32(DX), R10
	MOVQ    48(DX), R11
	VMOVUPD (SI)(R8*8), Y1
	VMULPD  Y4, Y1, Y1
	VMOVUPD (SI)(R9*8), Y2
	VMULPD  Y5, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VMOVUPD (SI)(R10*8), Y2
	VMULPD  Y6, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VMOVUPD (SI)(R11*8), Y2
	VMULPD  Y7, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VADDPD  Y0, Y1, Y0

	MOVQ    64(DX), R8
	MOVQ    80(DX), R9
	MOVQ    96(DX), R10
	MOVQ    112(DX), R11
	VMOVUPD (SI)(R8*8), Y1
	VMULPD  Y8, Y1, Y1
	VMOVUPD (SI)(R9*8), Y2
	VMULPD  Y9, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VMOVUPD (SI)(R10*8), Y2
	VMULPD  Y10, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VMOVUPD (SI)(R11*8), Y2
	VMULPD  Y11, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VADDPD  Y0, Y1, Y0

	MOVQ    128(DX), R8
	MOVQ    144(DX), R9
	MOVQ    160(DX), R10
	MOVQ    176(DX), R11
	VMOVUPD (SI)(R8*8), Y1
	VMULPD  Y12, Y1, Y1
	VMOVUPD (SI)(R9*8), Y2
	VMULPD  Y13, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VMOVUPD (SI)(R10*8), Y2
	VMULPD  Y14, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VMOVUPD (SI)(R11*8), Y2
	VMULPD  Y15, Y2, Y2
	VADDPD  Y1, Y2, Y1
	VADDPD  Y0, Y1, Y0

	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGT     loop

done:
	VZEROUPPER
	RET
