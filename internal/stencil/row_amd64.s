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

// func blockAVX2(out, x *float64, nx, ny, n, isx, isy, osx, osy int, center float64, taps *tap)
//
// stencilRow's 12-tap loop over nx planes of ny rows of n >= 1 points:
// row (i, j) reads from x + i*isx + j*isy and writes out + i*osx +
// j*osy. Four points per iteration, then the n & 3 tail one point at a
// time, both with stencilRow's rounding sequence, every product rounded
// (no fused multiply-add): the centre product, then per group of four
// taps ((p_a + p_b) + p_c) + p_d added to it. Each instruction takes its
// first source where the compiled Go loop does - the grid value before
// the coefficient, the newer sum before the older - so even NaN
// payloads agree. Y3 holds the centre, Y4-Y15 the 12 coefficients (the
// tail uses their low lanes); tap offsets are reloaded per group. R12
// and R13 step from a row's end to the next row's start, R14 and R15
// from a plane's end to the next plane's start. The Go caller has
// checked that every access lies inside its slice.
TEXT ·blockAVX2(SB), NOSPLIT, $0-88
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         nx+16(FP), AX
	MOVQ         n+32(FP), R8
	MOVQ         ny+24(FP), R9
	MOVQ         isy+48(FP), R12
	SUBQ         R8, R12
	SHLQ         $3, R12
	MOVQ         osy+64(FP), R13
	SUBQ         R8, R13
	SHLQ         $3, R13
	MOVQ         R9, R14
	IMULQ        isy+48(FP), R14
	NEGQ         R14
	ADDQ         isx+40(FP), R14
	SHLQ         $3, R14
	MOVQ         R9, R15
	IMULQ        osy+64(FP), R15
	NEGQ         R15
	ADDQ         osx+56(FP), R15
	SHLQ         $3, R15
	VBROADCASTSD center+72(FP), Y3
	MOVQ         taps+80(FP), DX
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

plane:
	MOVQ ny+24(FP), BX

row:
	MOVQ n+32(FP), CX
	SUBQ $4, CX
	JLT  tail

vec:
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
	JGE     vec

tail:
	ADDQ $4, CX
	JLE  next

one:
	VMOVSD (SI), X0
	VMULSD X3, X0, X0

	MOVQ   0(DX), R8
	MOVQ   16(DX), R9
	MOVQ   32(DX), R10
	MOVQ   48(DX), R11
	VMOVSD (SI)(R8*8), X1
	VMULSD X4, X1, X1
	VMOVSD (SI)(R9*8), X2
	VMULSD X5, X2, X2
	VADDSD X1, X2, X1
	VMOVSD (SI)(R10*8), X2
	VMULSD X6, X2, X2
	VADDSD X1, X2, X1
	VMOVSD (SI)(R11*8), X2
	VMULSD X7, X2, X2
	VADDSD X1, X2, X1
	VADDSD X0, X1, X0

	MOVQ   64(DX), R8
	MOVQ   80(DX), R9
	MOVQ   96(DX), R10
	MOVQ   112(DX), R11
	VMOVSD (SI)(R8*8), X1
	VMULSD X8, X1, X1
	VMOVSD (SI)(R9*8), X2
	VMULSD X9, X2, X2
	VADDSD X1, X2, X1
	VMOVSD (SI)(R10*8), X2
	VMULSD X10, X2, X2
	VADDSD X1, X2, X1
	VMOVSD (SI)(R11*8), X2
	VMULSD X11, X2, X2
	VADDSD X1, X2, X1
	VADDSD X0, X1, X0

	MOVQ   128(DX), R8
	MOVQ   144(DX), R9
	MOVQ   160(DX), R10
	MOVQ   176(DX), R11
	VMOVSD (SI)(R8*8), X1
	VMULSD X12, X1, X1
	VMOVSD (SI)(R9*8), X2
	VMULSD X13, X2, X2
	VADDSD X1, X2, X1
	VMOVSD (SI)(R10*8), X2
	VMULSD X14, X2, X2
	VADDSD X1, X2, X1
	VMOVSD (SI)(R11*8), X2
	VMULSD X15, X2, X2
	VADDSD X1, X2, X1
	VADDSD X0, X1, X0

	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	SUBQ   $1, CX
	JGT    one

next:
	ADDQ R12, SI
	ADDQ R13, DI
	SUBQ $1, BX
	JGT  row
	ADDQ R14, SI
	ADDQ R15, DI
	SUBQ $1, AX
	JGT  plane

	VZEROUPPER
	RET
