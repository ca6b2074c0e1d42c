//go:build amd64

#include "textflag.h"

// Register use in step4:
//
//	AX       k
//	CX       n-1 (the pair loop runs while k < n-1)
//	SI, DI   in, next
//	R8-R11   the four weight rows w0..w3
//	BX, DX,
//	R12, R13 the four momentum rows dw0..dw3
//	X0-X3    the four forward sums s0..s3 (low lane)
//	X4       mu in both lanes
//	X5-X8    g0..g3 in both lanes
//	X9, X10  in[k:k+2], next[k:k+2]
//	X11-X13  temporaries

// STEP2 updates one unit's weights at k and k+1 and adds both products
// to its sum, the lower k first:
//
//	u = g·x + mu·dw;  v = w + u;  w = v;  dw = u;  s += v·xn
#define STEP2(W, DW, G, S) \
	MOVUPD   (W)(AX*8), X11;  \
	MOVUPD   (DW)(AX*8), X12; \
	MULPD    X4, X12;         \
	MOVAPD   X9, X13;         \
	MULPD    G, X13;          \
	ADDPD    X12, X13;        \
	ADDPD    X13, X11;        \
	MOVUPD   X11, (W)(AX*8);  \
	MOVUPD   X13, (DW)(AX*8); \
	MULPD    X10, X11;        \
	ADDSD    X11, S;          \
	UNPCKHPD X11, X11;        \
	ADDSD    X11, S

// STEP1 is STEP2 for the single k of an odd n.
#define STEP1(W, DW, G, S) \
	MOVSD  (W)(AX*8), X11;  \
	MOVSD  (DW)(AX*8), X12; \
	MULSD  X4, X12;         \
	MOVAPD X9, X13;         \
	MULSD  G, X13;          \
	ADDSD  X12, X13;        \
	ADDSD  X13, X11;        \
	MOVSD  X11, (W)(AX*8);  \
	MOVSD  X13, (DW)(AX*8); \
	MULSD  X10, X11;        \
	ADDSD  X11, S

// func step4(w, dw, in, next []float64, grad *[4]float64, mu float64, sums *[4]float64)
TEXT ·step4(SB), NOSPLIT, $0-120
	MOVQ in_base+48(FP), SI
	MOVQ in_len+56(FP), CX
	MOVQ next_base+72(FP), DI
	MOVQ w_base+0(FP), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	MOVQ dw_base+24(FP), BX
	LEAQ (BX)(CX*8), DX
	LEAQ (DX)(CX*8), R12
	LEAQ (R12)(CX*8), R13

	MOVQ     grad+96(FP), AX
	MOVSD    0(AX), X5
	UNPCKLPD X5, X5
	MOVSD    8(AX), X6
	UNPCKLPD X6, X6
	MOVSD    16(AX), X7
	UNPCKLPD X7, X7
	MOVSD    24(AX), X8
	UNPCKLPD X8, X8
	MOVSD    mu+104(FP), X4
	UNPCKLPD X4, X4
	MOVQ     sums+112(FP), AX
	MOVSD    0(AX), X0
	MOVSD    8(AX), X1
	MOVSD    16(AX), X2
	MOVSD    24(AX), X3

	XORQ AX, AX
	DECQ CX
	CMPQ AX, CX
	JGE  tail

pairs:
	MOVUPD (SI)(AX*8), X9
	MOVUPD (DI)(AX*8), X10
	STEP2(R8, BX, X5, X0)
	STEP2(R9, DX, X6, X1)
	STEP2(R10, R12, X7, X2)
	STEP2(R11, R13, X8, X3)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    pairs

tail:
	CMPQ AX, CX
	JNE  done
	MOVSD (SI)(AX*8), X9
	MOVSD (DI)(AX*8), X10
	STEP1(R8, BX, X5, X0)
	STEP1(R9, DX, X6, X1)
	STEP1(R10, R12, X7, X2)
	STEP1(R11, R13, X8, X3)

done:
	MOVQ  sums+112(FP), AX
	MOVSD X0, 0(AX)
	MOVSD X1, 8(AX)
	MOVSD X2, 16(AX)
	MOVSD X3, 24(AX)
	RET

// func step2(w, dw, in, next []float64, grad *[2]float64, mu float64, sums *[2]float64)
//
// step4 for two units, with the same register use.
TEXT ·step2(SB), NOSPLIT, $0-120
	MOVQ in_base+48(FP), SI
	MOVQ in_len+56(FP), CX
	MOVQ next_base+72(FP), DI
	MOVQ w_base+0(FP), R8
	LEAQ (R8)(CX*8), R9
	MOVQ dw_base+24(FP), BX
	LEAQ (BX)(CX*8), DX

	MOVQ     grad+96(FP), AX
	MOVSD    0(AX), X5
	UNPCKLPD X5, X5
	MOVSD    8(AX), X6
	UNPCKLPD X6, X6
	MOVSD    mu+104(FP), X4
	UNPCKLPD X4, X4
	MOVQ     sums+112(FP), AX
	MOVSD    0(AX), X0
	MOVSD    8(AX), X1

	XORQ AX, AX
	DECQ CX
	CMPQ AX, CX
	JGE  tail

pairs:
	MOVUPD (SI)(AX*8), X9
	MOVUPD (DI)(AX*8), X10
	STEP2(R8, BX, X5, X0)
	STEP2(R9, DX, X6, X1)
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    pairs

tail:
	CMPQ AX, CX
	JNE  done
	MOVSD (SI)(AX*8), X9
	MOVSD (DI)(AX*8), X10
	STEP1(R8, BX, X5, X0)
	STEP1(R9, DX, X6, X1)

done:
	MOVQ  sums+112(FP), AX
	MOVSD X0, 0(AX)
	MOVSD X1, 8(AX)
	RET
