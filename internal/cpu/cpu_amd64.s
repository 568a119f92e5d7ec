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
