//go:build amd64 && !purego

#include "textflag.h"

// AES-NI kernels for the CBC core of CMAC. A lane is laid out as
//
//	 0  state [16]byte
//	16  key   *schedule (round keys at offset 0, 11 x 16 bytes)
//	24  src   []byte    (data pointer)
//
// and lanes are 56 bytes apart; absorb_amd64.go asserts both. No
// instruction here is indexed by key, state or message bytes.

#define LANE 56
#define KEY  16
#define SRC  24

// func cpuHasAES() bool
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND derives the next AES-128 round key from the one in X0 and
// stores it at off(DI).
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xff, X1, X1; \
	MOVOU  X0, X2; \
	PSLLDQ $4, X2; \
	PXOR   X2, X0; \
	PSLLDQ $4, X2; \
	PXOR   X2, X0; \
	PSLLDQ $4, X2; \
	PXOR   X2, X0; \
	PXOR   X1, X0; \
	MOVOU  X0, off(DI)

// func expandKey128(rk *[11][16]byte, key *[16]byte)
TEXT ·expandKey128(SB), NOSPLIT, $0-16
	MOVQ  rk+0(FP), DI
	MOVQ  key+8(FP), SI
	MOVOU (SI), X0
	MOVOU X0, (DI)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// func absorb1(state *[16]byte, rk *[11][16]byte, src *byte, n int)
//
// One chain is bound by AESENC latency, so the round keys are held in
// X1-X11 for the whole run.
TEXT ·absorb1(SB), NOSPLIT, $0-32
	MOVQ  state+0(FP), DI
	MOVQ  rk+8(FP), R8
	MOVQ  src+16(FP), SI
	MOVQ  n+24(FP), DX
	MOVOU (DI), X0
	MOVOU 0(R8), X1
	MOVOU 16(R8), X2
	MOVOU 32(R8), X3
	MOVOU 48(R8), X4
	MOVOU 64(R8), X5
	MOVOU 80(R8), X6
	MOVOU 96(R8), X7
	MOVOU 112(R8), X8
	MOVOU 128(R8), X9
	MOVOU 144(R8), X10
	MOVOU 160(R8), X11

loop1:
	MOVOU      (SI), X12
	PXOR       X12, X0
	PXOR       X1, X0
	AESENC     X2, X0
	AESENC     X3, X0
	AESENC     X4, X0
	AESENC     X5, X0
	AESENC     X6, X0
	AESENC     X7, X0
	AESENC     X8, X0
	AESENC     X9, X0
	AESENC     X10, X0
	AESENCLAST X11, X0
	ADDQ       $16, SI
	DECQ       DX
	JNZ        loop1
	MOVOU      X0, (DI)
	RET

// BLOCK XORs lane i's next message block into its state st.
#define BLOCK(i, tmp, st) \
	MOVQ  (i*LANE+SRC)(DI), AX; \
	MOVOU (AX)(CX*1), tmp; \
	PXOR  tmp, st

// ROUND applies op with each lane's own round key at off.
#define ROUND(op, off) \
	MOVOU off(R8), X8; \
	op    X8, X0; \
	MOVOU off(R9), X9; \
	op    X9, X1; \
	MOVOU off(R10), X10; \
	op    X10, X2; \
	MOVOU off(R11), X11; \
	op    X11, X3; \
	MOVOU off(R12), X12; \
	op    X12, X4; \
	MOVOU off(R13), X13; \
	op    X13, X5; \
	MOVOU off(R14), X14; \
	op    X14, X6; \
	MOVOU off(R15), X15; \
	op    X15, X7

// func absorb8(lanes *[8]lane, n int)
//
// Eight chains in X0-X7, their round-key pointers in R8-R15, round keys
// streamed through X8-X15. Every lane advances by the same byte offset
// CX from its own data pointer.
TEXT ·absorb8(SB), NOSPLIT, $0-16
	MOVQ  lanes+0(FP), DI
	MOVQ  n+8(FP), DX
	MOVQ  (0*LANE+KEY)(DI), R8
	MOVQ  (1*LANE+KEY)(DI), R9
	MOVQ  (2*LANE+KEY)(DI), R10
	MOVQ  (3*LANE+KEY)(DI), R11
	MOVQ  (4*LANE+KEY)(DI), R12
	MOVQ  (5*LANE+KEY)(DI), R13
	MOVQ  (6*LANE+KEY)(DI), R14
	MOVQ  (7*LANE+KEY)(DI), R15
	MOVOU (0*LANE)(DI), X0
	MOVOU (1*LANE)(DI), X1
	MOVOU (2*LANE)(DI), X2
	MOVOU (3*LANE)(DI), X3
	MOVOU (4*LANE)(DI), X4
	MOVOU (5*LANE)(DI), X5
	MOVOU (6*LANE)(DI), X6
	MOVOU (7*LANE)(DI), X7
	XORQ  CX, CX

loop8:
	BLOCK(0, X8, X0)
	BLOCK(1, X9, X1)
	BLOCK(2, X10, X2)
	BLOCK(3, X11, X3)
	BLOCK(4, X12, X4)
	BLOCK(5, X13, X5)
	BLOCK(6, X14, X6)
	BLOCK(7, X15, X7)
	ROUND(PXOR, 0)
	ROUND(AESENC, 16)
	ROUND(AESENC, 32)
	ROUND(AESENC, 48)
	ROUND(AESENC, 64)
	ROUND(AESENC, 80)
	ROUND(AESENC, 96)
	ROUND(AESENC, 112)
	ROUND(AESENC, 128)
	ROUND(AESENC, 144)
	ROUND(AESENCLAST, 160)
	ADDQ  $16, CX
	DECQ  DX
	JNZ   loop8
	MOVOU X0, (0*LANE)(DI)
	MOVOU X1, (1*LANE)(DI)
	MOVOU X2, (2*LANE)(DI)
	MOVOU X3, (3*LANE)(DI)
	MOVOU X4, (4*LANE)(DI)
	MOVOU X5, (5*LANE)(DI)
	MOVOU X6, (6*LANE)(DI)
	MOVOU X7, (7*LANE)(DI)
	RET
