#include "textflag.h"
#include "go_asm.h"

// func blockAVX2(out, x, a, p avxOperand, nx, ny, n int, center float64, taps *tap, ep epilogue)
//
// stencilRow's 12-tap loop over nx planes of ny rows of n >= 1 points,
// with ep applied to each stencil value s before it is stored at out:
// the epilogue rows of fused.go (stepRow, smoothRow, residualRow) on
// four points at a time. x is the stencil's source and the x of the
// epilogues, a is v (ep.addV), rhs (smooth) or b (residual), p is
// prev (recurrence). Each pointer advances along its row; at a row's
// end it adds its row step, at a plane's end its plane step (bytes).
// a and p are kept as their distance from x's pointer (R12, R13), which
// changes only at a row's or a plane's end, by their steps less x's
// (the prologue turns a's and p's steps into that, in their argument
// slots).
//
// Four points per iteration, then the n & 3 tail one point at a time,
// both with stencilRow's rounding sequence, every product rounded (no
// fused multiply-add): the centre product, then per group of four taps
// ((p_a + p_b) + p_c) + p_d added to it. Each instruction takes its
// first source where the compiled Go loop does - the grid value before
// the coefficient, the newer sum before the older, in the epilogues the
// order the compiled row loops use - so even NaN payloads agree. a and
// p are read before out is stored, so either may be out itself. Y3
// holds the centre, Y4-Y15 the 12 coefficients (the tail uses their
// low lanes); tap offsets are reloaded per group, the epilogue's
// constants per use. R14 holds ep.kind, R15 ep.kind | ep.addV<<3: zero
// for the plain store, whose loops never enter an epilogue. The
// Go caller has checked that every access lies inside its slice.
TEXT ·blockAVX2(SB), NOSPLIT, $0-176
	MOVQ         out_p+0(FP), DI
	MOVQ         x_p+24(FP), SI
	MOVQ         a_p+48(FP), R12
	SUBQ         SI, R12
	MOVQ         p_p+72(FP), R13
	SUBQ         SI, R13
	MOVQ         x_row+32(FP), AX
	SUBQ         AX, a_row+56(FP)
	SUBQ         AX, p_row+80(FP)
	MOVQ         x_plane+40(FP), AX
	SUBQ         AX, a_plane+64(FP)
	SUBQ         AX, p_plane+88(FP)
	MOVQ         nx+96(FP), AX
	MOVQ         ep_kind+136(FP), R14
	MOVBQZX      ep_addV+144(FP), R15
	SHLQ         $3, R15
	ORQ          R14, R15
	VBROADCASTSD center+120(FP), Y3
	MOVQ         taps+128(FP), DX
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
	MOVQ ny+104(FP), BX

row:
	MOVQ n+112(FP), CX
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

	// Y0 = s. Anything but the plain store runs its epilogue out of line.
	TESTQ R15, R15
	JNE   vepi

vstore:
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

	TESTQ R15, R15
	JNE   sepi

sstore:
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	SUBQ   $1, CX
	JGT    one

next:
	ADDQ out_row+8(FP), DI
	ADDQ x_row+32(FP), SI
	ADDQ a_row+56(FP), R12
	ADDQ p_row+80(FP), R13
	SUBQ $1, BX
	JGT  row
	ADDQ out_plane+16(FP), DI
	ADDQ x_plane+40(FP), SI
	ADDQ a_plane+64(FP), R12
	ADDQ p_plane+88(FP), R13
	SUBQ $1, AX
	JGT  plane

	VZEROUPPER
	RET

// The epilogues, out of line: on Y0 = s in the vector loop, on X0 = s in
// the tail. First t = s + v*x where ep.addV holds (R15 differs from
// R14), then the kind's operation; each returns to its store.
vepi:
	CMPQ    R15, R14
	JEQ     vkind
	VMOVUPD (SI)(R12*1), Y1
	VMULPD  (SI), Y1, Y1
	VADDPD  Y1, Y0, Y0

vkind:
	CMPQ         R14, $const_epAxpy
	JLT          vlow
	VBROADCASTSD ep_alpha+152(FP), Y1
	VMULPD       Y1, Y0, Y0
	JNE          vaxpby
	VADDPD       (SI), Y0, Y0     // alpha*t + x
	JMP          vstore

vaxpby:
	VMOVUPD      (SI), Y1
	VBROADCASTSD ep_beta+160(FP), Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       Y1, Y0, Y0       // alpha*t + beta*x
	CMPQ         R14, $const_epRecur
	JNE          vstore
	VMOVUPD      (SI)(R13*1), Y1
	VBROADCASTSD ep_gamma+168(FP), Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       Y1, Y0, Y0       // + gamma*p
	JMP          vstore

vlow:
	CMPQ         R14, $const_epResidual
	JLT          vstore           // store s, or t
	VMOVUPD      (SI)(R12*1), Y1
	JNE          vsmooth
	VSUBPD       Y0, Y1, Y0       // b - s
	JMP          vstore

vsmooth:
	VSUBPD       Y0, Y1, Y1
	VBROADCASTSD ep_alpha+152(FP), Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       (SI), Y1, Y0     // c*(rhs - s) + phi
	JMP          vstore

sepi:
	CMPQ   R15, R14
	JEQ    skind
	VMOVSD (SI)(R12*1), X1
	VMULSD (SI), X1, X1
	VADDSD X1, X0, X0

skind:
	CMPQ   R14, $const_epAxpy
	JLT    slow
	VMULSD ep_alpha+152(FP), X0, X0
	JNE    saxpby
	VADDSD (SI), X0, X0
	JMP    sstore

saxpby:
	VMOVSD (SI), X1
	VMULSD ep_beta+160(FP), X1, X1
	VADDSD X1, X0, X0
	CMPQ   R14, $const_epRecur
	JNE    sstore
	VMOVSD (SI)(R13*1), X1
	VMULSD ep_gamma+168(FP), X1, X1
	VADDSD X1, X0, X0
	JMP    sstore

slow:
	CMPQ   R14, $const_epResidual
	JLT    sstore
	VMOVSD (SI)(R12*1), X1
	JNE    ssmooth
	VSUBSD X0, X1, X0
	JMP    sstore

ssmooth:
	VSUBSD X0, X1, X1
	VMULSD ep_alpha+152(FP), X1, X1
	VADDSD (SI), X1, X0
	JMP    sstore
