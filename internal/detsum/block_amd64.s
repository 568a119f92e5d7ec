#include "textflag.h"

// func productsAVX2(dst, x, y *float64, n int, m *[4]uint64)
//
// productsGo's loop, 4 products per iteration, then the n & 3 tail one
// at a time. Each VMULPD/VMULSD takes x as its first source, as the
// compiled Go loop does, so a NaN*NaN product keeps x's payload. The
// lanes of m (Y5) keep a running maximum of the products' bit patterns,
// sign cleared by the mask in Y4, through a signed compare and a blend:
// the cleared bit patterns are non-negative, so a signed compare orders
// them. The tail keeps its maximum in the low lane of X6 (its 128-bit
// operations clear the upper lanes of their destinations), merged into
// Y5 at the end. All instructions are VEX-encoded, so no SSE/AVX
// transition is paid.
TEXT ·productsAVX2(SB), NOSPLIT, $0-40
	MOVQ     dst+0(FP), DI
	MOVQ     x+8(FP), SI
	MOVQ     y+16(FP), DX
	MOVQ     n+24(FP), CX
	MOVQ     m+32(FP), R8
	VPCMPEQQ Y4, Y4, Y4
	VPSRLQ   $1, Y4, Y4
	VMOVDQU  (R8), Y5
	SUBQ     $4, CX
	JLT      tail

vec:
	VMOVUPD   (SI), Y0
	VMULPD    (DX), Y0, Y0
	VMOVUPD   Y0, (DI)
	VANDPD    Y4, Y0, Y1
	VPCMPGTQ  Y5, Y1, Y2
	VBLENDVPD Y2, Y1, Y5, Y5
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, DI
	SUBQ      $4, CX
	JGE       vec

tail:
	ADDQ  $4, CX
	JZ    done
	VPXOR X6, X6, X6

scalar:
	VMOVSD    (SI), X0
	VMULSD    (DX), X0, X0
	VMOVSD    X0, (DI)
	VANDPD    X4, X0, X1
	VPCMPGTQ  X6, X1, X2
	VBLENDVPD X2, X1, X6, X6
	ADDQ      $8, SI
	ADDQ      $8, DX
	ADDQ      $8, DI
	DECQ      CX
	JNZ       scalar
	VPCMPGTQ  Y5, Y6, Y2
	VBLENDVPD Y2, Y6, Y5, Y5

done:
	VMOVDQU    Y5, (R8)
	VZEROUPPER
	RET

// func extractAVX2(p *float64, n int, sigma float64) (sum float64, bits uint64)
//
// extractGo's loop, 8 values per iteration in two vectors: q = (σ+p)-σ,
// r = p-q stored over p, q added into Y5/Y6 and r ORed into Y7/Y8. The
// sums are exact in any order and lane split (see flush), so the lanes
// fold in any order too. No multiply, so no fused multiply-add.
TEXT ·extractAVX2(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD sigma+16(FP), Y4
	VXORPD       Y5, Y5, Y5
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	VXORPD       Y8, Y8, Y8

level:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VADDPD  Y0, Y4, Y2
	VADDPD  Y1, Y4, Y3
	VSUBPD  Y4, Y2, Y2
	VSUBPD  Y4, Y3, Y3
	VSUBPD  Y2, Y0, Y0
	VSUBPD  Y3, Y1, Y1
	VADDPD  Y2, Y5, Y5
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VORPD   Y0, Y7, Y7
	VORPD   Y1, Y8, Y8
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     level

	VADDPD       Y6, Y5, Y5
	VEXTRACTF128 $1, Y5, X6
	VADDPD       X6, X5, X5
	VUNPCKHPD    X5, X5, X6
	VADDSD       X6, X5, X5
	VMOVSD       X5, sum+24(FP)
	VORPD        Y8, Y7, Y7
	VEXTRACTF128 $1, Y7, X8
	VORPD        X8, X7, X7
	VUNPCKHPD    X7, X7, X8
	VORPD        X8, X7, X7
	VMOVQ        X7, bits+32(FP)
	VZEROUPPER
	RET
