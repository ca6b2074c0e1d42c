//go:build amd64

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// The constants of math.Exp's amd64 assembly (math/exp_amd64.s), with
// the same literals, and the sigmoid's range limit.
DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920         // LOG2E
DATA expc<>+8(SB)/8, $0.69314718055966295651160180568695068359375  // LN2U
DATA expc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expc<>+24(SB)/8, $0.0625
DATA expc<>+32(SB)/8, $2.4801587301587301587e-5
DATA expc<>+40(SB)/8, $1.9841269841269841270e-4
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3
DATA expc<>+56(SB)/8, $8.3333333333333333333e-3
DATA expc<>+64(SB)/8, $4.1666666666666666667e-2
DATA expc<>+72(SB)/8, $1.6666666666666666667e-1
DATA expc<>+80(SB)/8, $0.5
DATA expc<>+88(SB)/8, $1.0
DATA expc<>+96(SB)/8, $2.0
DATA expc<>+104(SB)/8, $700.0 // expLimit
GLOBL expc<>(SB), RODATA|NOPTR, $112

// func sigmoidAVX2(x []float64) (kept bool)
//
// Each lane computes 1/(1+e) with e = exp(-s) by math.Exp's FMA path
// (archExp after its range checks, with useFMA set), packed: the same
// operations on the same operands in the same order, so each in-range
// lane equals Sigmoid(s) wherever math.Exp takes that path.
//
// Register use:
//
//	SI, CX, AX  x, len(x), index
//	R9          AND of the lanes' in-range bits
//	Y0          s;  Y1 |s| <= limit mask;  Y2 the reduced argument r
//	Y3          k, then the polynomial;  X4 k as int32;  Y5 temporary
//	Y9-Y15      LOG2E, 1023 (int64), 2, 1, limit, abs mask, sign mask
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-25
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLQ       $1, Y15, Y14
	VPSLLQ       $63, Y15, Y15
	VPCMPEQQ     Y10, Y10, Y10
	VPSRLQ       $54, Y10, Y10
	VBROADCASTSD expc<>+0(SB), Y9
	VBROADCASTSD expc<>+88(SB), Y12
	VBROADCASTSD expc<>+96(SB), Y11
	VBROADCASTSD expc<>+104(SB), Y13
	MOVL         $15, R9
	XORQ         AX, AX

sigloop:
	CMPQ AX, CX
	JGE  sigdone

	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    Y14, Y0, Y1
	VCMPPD    $2, Y13, Y1, Y1 // |s| <= limit, false for NaN
	VMOVMSKPD Y1, DX
	ANDL      DX, R9
	VXORPD    Y15, Y0, Y2     // x = -s

	// k = round(x·LOG2E);  r = ((x − k·LN2U) − k·LN2L)·0.0625, fused
	VMULPD       Y9, Y2, Y3
	VCVTPD2DQY   Y3, X4
	VCVTDQ2PD    X4, Y3
	VBROADCASTSD expc<>+8(SB), Y5
	VFNMADD231PD Y5, Y3, Y2
	VBROADCASTSD expc<>+16(SB), Y5
	VFNMADD231PD Y5, Y3, Y2
	VBROADCASTSD expc<>+24(SB), Y5
	VMULPD       Y5, Y2, Y2

	// Taylor series in Horner form, one FMA per coefficient
	VBROADCASTSD expc<>+32(SB), Y3
	VBROADCASTSD expc<>+40(SB), Y5
	VFMADD213PD  Y5, Y2, Y3
	VBROADCASTSD expc<>+48(SB), Y5
	VFMADD213PD  Y5, Y2, Y3
	VBROADCASTSD expc<>+56(SB), Y5
	VFMADD213PD  Y5, Y2, Y3
	VBROADCASTSD expc<>+64(SB), Y5
	VFMADD213PD  Y5, Y2, Y3
	VBROADCASTSD expc<>+72(SB), Y5
	VFMADD213PD  Y5, Y2, Y3
	VBROADCASTSD expc<>+80(SB), Y5
	VFMADD213PD  Y5, Y2, Y3
	VFMADD213PD  Y12, Y2, Y3

	// four squarings undo the 0.0625: r·(r+2) three times, the last
	// one's +1 fused
	VMULPD      Y3, Y2, Y2
	VADDPD      Y11, Y2, Y3
	VMULPD      Y3, Y2, Y2
	VADDPD      Y11, Y2, Y3
	VMULPD      Y3, Y2, Y2
	VADDPD      Y11, Y2, Y3
	VMULPD      Y3, Y2, Y2
	VADDPD      Y11, Y2, Y3
	VFMADD213PD Y12, Y3, Y2

	// e = fr·2^k, then 1/(1+e); out-of-range lanes keep s
	VPMOVSXDQ X4, Y5
	VPADDQ    Y10, Y5, Y5
	VPSLLQ    $52, Y5, Y5
	VMULPD    Y5, Y2, Y2
	VADDPD    Y12, Y2, Y2
	VDIVPD    Y2, Y12, Y2
	VBLENDVPD Y1, Y2, Y0, Y0
	VMOVUPD   Y0, (SI)(AX*8)
	ADDQ      $4, AX
	JMP       sigloop

sigdone:
	VZEROUPPER
	CMPL  R9, $15
	SETNE kept+24(FP)
	RET

// LANE runs the step for the four units at byte offset OFF of the rows
// R8 (weights) and R9 (momenta), with gradient scales G and sums S:
//
//	u = g·x + mu·dw;  v = w + u;  w = v;  dw = u;  s += v·xn
#define LANE(OFF, G, S) \
	VMULPD  Y9, G, Y11;        \
	VMULPD  OFF(R9), Y8, Y12;  \
	VADDPD  Y12, Y11, Y12;     \
	VADDPD  OFF(R8), Y12, Y13; \
	VMOVUPD Y13, OFF(R8);      \
	VMOVUPD Y12, OFF(R9);      \
	VMULPD  Y10, Y13, Y13;     \
	VADDPD  Y13, S, S

// BIAS steps the biases of the four units at byte offset OFF, leaving
// their gradient scales in G and their updated biases in S:
//
//	g = lr·d;  u = g + mu·db;  db = u;  b += u;  s = b
#define BIAS(OFF, G, S) \
	VMULPD  OFF(R10), Y14, G; \
	VMULPD  OFF(R12), Y8, S;  \
	VADDPD  S, G, S;          \
	VMOVUPD S, OFF(R12);      \
	VADDPD  OFF(R11), S, S;   \
	VMOVUPD S, OFF(R11)

// NEXTK moves to the next input: R8 and R9 to the next k-major row.
#define NEXTK \
	ADDQ BX, R8; \
	ADDQ BX, R9; \
	INCQ AX;     \
	CMPQ AX, CX

// INPUTS broadcasts in[k] and next[k].
#define INPUTS \
	VBROADCASTSD (SI)(AX*8), Y9; \
	VBROADCASTSD (DI)(AX*8), Y10

// func stepAVX2(w, dw []float64, stride int, in, next, d, b, db, s []float64, lr, mu float64)
//
// Register use:
//
//	R8, R9      row k of w and dw;  BX  stride in bytes
//	SI, DI      in, next;  AX  k;  CX  len(in), at least 1
//	R10-R12     d, b, db;  DX  s;  R13  len(b): 4, 8, 12 or 16
//	Y0-Y3       the groups' sums;  Y4-Y7  their gradient scales
//	Y8, Y14     mu, lr;  Y9, Y10  in[k], next[k];  Y11-Y13 temporaries
TEXT ·stepAVX2(SB), NOSPLIT, $0-216
	MOVQ         w_base+0(FP), R8
	MOVQ         dw_base+24(FP), R9
	MOVQ         stride+48(FP), BX
	SHLQ         $3, BX
	MOVQ         in_base+56(FP), SI
	MOVQ         in_len+64(FP), CX
	MOVQ         next_base+80(FP), DI
	MOVQ         d_base+104(FP), R10
	MOVQ         b_base+128(FP), R11
	MOVQ         b_len+136(FP), R13
	MOVQ         db_base+152(FP), R12
	MOVQ         s_base+176(FP), DX
	VBROADCASTSD lr+200(FP), Y14
	VBROADCASTSD mu+208(FP), Y8
	XORQ         AX, AX
	CMPQ         R13, $16
	JEQ          groups4
	CMPQ         R13, $12
	JEQ          groups3
	CMPQ         R13, $8
	JEQ          groups2
	BIAS(0, Y4, Y0)

loop1:
	INPUTS
	LANE(0, Y4, Y0)
	NEXTK
	JLT loop1
	JMP store1

groups2:
	BIAS(0, Y4, Y0)
	BIAS(32, Y5, Y1)

loop2:
	INPUTS
	LANE(0, Y4, Y0)
	LANE(32, Y5, Y1)
	NEXTK
	JLT loop2
	JMP store2

groups3:
	BIAS(0, Y4, Y0)
	BIAS(32, Y5, Y1)
	BIAS(64, Y6, Y2)

loop3:
	INPUTS
	LANE(0, Y4, Y0)
	LANE(32, Y5, Y1)
	LANE(64, Y6, Y2)
	NEXTK
	JLT loop3
	JMP store3

groups4:
	BIAS(0, Y4, Y0)
	BIAS(32, Y5, Y1)
	BIAS(64, Y6, Y2)
	BIAS(96, Y7, Y3)

loop4:
	INPUTS
	LANE(0, Y4, Y0)
	LANE(32, Y5, Y1)
	LANE(64, Y6, Y2)
	LANE(96, Y7, Y3)
	NEXTK
	JLT loop4
	VMOVUPD Y3, 96(DX)

store3:
	VMOVUPD Y2, 64(DX)

store2:
	VMOVUPD Y1, 32(DX)

store1:
	VMOVUPD Y0, 0(DX)
	VZEROUPPER
	RET

// PAIRS adds (w_j·d)·d of one group, the differences at (P), to S.
#define PAIRS(P, S, T) \
	VMULPD (P), Y4, T; \
	VMULPD (P), T, T;  \
	VADDPD T, S, S

// func distancesAVX2(diff, w, out []float64)
//
// Four groups (16 pairs) share each pass over j while they last, so
// their add chains overlap; the rest go one group at a time.
//
// Register use:
//
//	SI          the current group's differences;  BX  bytes per group
//	DI, CX      w, len(w);  AX  j;  DX, R8  out, slots left
//	R9-R12      difference j of four groups
//	Y0-Y3       the groups' sums;  Y4  w_j;  Y5-Y8 temporaries
TEXT ·distancesAVX2(SB), NOSPLIT, $0-72
	MOVQ diff_base+0(FP), SI
	MOVQ w_base+24(FP), DI
	MOVQ w_len+32(FP), CX
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), R8
	MOVQ CX, BX
	SHLQ $5, BX

quad:
	CMPQ   R8, $16
	JLT    single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9
	LEAQ   (SI)(BX*1), R10
	LEAQ   (R10)(BX*1), R11
	LEAQ   (R11)(BX*1), R12
	XORQ   AX, AX

quadj:
	VBROADCASTSD (DI)(AX*8), Y4
	PAIRS(R9, Y0, Y5)
	PAIRS(R10, Y1, Y6)
	PAIRS(R11, Y2, Y7)
	PAIRS(R12, Y3, Y8)
	ADDQ         $32, R9
	ADDQ         $32, R10
	ADDQ         $32, R11
	ADDQ         $32, R12
	INCQ         AX
	CMPQ         AX, CX
	JLT          quadj
	VSQRTPD      Y0, Y0
	VSQRTPD      Y1, Y1
	VSQRTPD      Y2, Y2
	VSQRTPD      Y3, Y3
	VMOVUPD      Y0, 0(DX)
	VMOVUPD      Y1, 32(DX)
	VMOVUPD      Y2, 64(DX)
	VMOVUPD      Y3, 96(DX)
	ADDQ         $128, DX
	LEAQ         (SI)(BX*4), SI
	SUBQ         $16, R8
	JMP          quad

single:
	CMPQ   R8, $4
	JLT    distdone
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

singlej:
	VBROADCASTSD (DI)(AX*8), Y4
	PAIRS(SI, Y0, Y5)
	ADDQ         $32, SI
	INCQ         AX
	CMPQ         AX, CX
	JLT          singlej
	VSQRTPD      Y0, Y0
	VMOVUPD      Y0, (DX)
	ADDQ         $32, DX
	SUBQ         $4, R8
	JMP          single

distdone:
	VZEROUPPER
	RET

#define GE $0x1d // VCMPPD predicate GE_OQ: false when either side is NaN
#define GT $0x1e // GT_OQ

// COUNT adds one to each candidate's lane where the entry of row j, at
// (R12), passes PRED against it: VCMPPD leaves -1 in a passing lane.
#define COUNT(PRED) \
	VMOVUPD (R12), Y8;         \
	VCMPPD  PRED, Y8, Y0, Y9;  \
	VPSUBQ  Y9, Y4, Y4;        \
	VCMPPD  PRED, Y8, Y1, Y10; \
	VPSUBQ  Y10, Y5, Y5;       \
	VCMPPD  PRED, Y8, Y2, Y11; \
	VPSUBQ  Y11, Y6, Y6;       \
	VCMPPD  PRED, Y8, Y3, Y12; \
	VPSUBQ  Y12, Y7, Y7

// PAIR counts candidate XJ toward candidate XI's rank in accumulator A.
#define PAIR(PRED, XI, XJ, A) \
	VCMPPD PRED, XJ, XI, Y9; \
	VPSUBQ Y9, A, A

// NANLAST sets the rank of each NaN lane of candidate X, 0 from the
// ordered compares, to n−1: predicate 3 (UNORD_Q) is true on NaN.
#define NANLAST(X, A) \
	VCMPPD $3, X, X, Y9; \
	VPAND  Y13, Y9, Y9;  \
	VPOR   Y9, A, A

// func ranksAVX2(d []float64, n int, r []int64)
//
// For each group of four columns and each group of four candidate rows
// i0..i0+3, one pass over the rows j compares all four candidates with
// row j: GE for j below the group, GT above it, and inside the group
// GE or GT by index order, the candidate itself skipped. A 4×4
// transpose then turns the candidates' ranks in columns b0..b0+3 into
// rows b0..b0+3 of r.
//
// Register use:
//
//	SI, DI      d, r;  CX  n;  BX  bytes per row
//	R8          the column group's byte offset;  R9  i0
//	R10         &d[i0][b0];  R11  &r[b0][i0];  R13  two rows further
//	R12         &d[j][b0];  DX  rows left
//	Y0-Y3       the candidates;  Y4-Y7  their ranks
//	Y8          row j;  Y9-Y12  compare masks;  Y13  n−1
TEXT ·ranksAVX2(SB), NOSPLIT, $0-56
	MOVQ         d_base+0(FP), SI
	MOVQ         n+24(FP), CX
	MOVQ         r_base+32(FP), DI
	MOVQ         CX, BX
	SHLQ         $3, BX
	LEAQ         -1(CX), AX
	MOVQ         AX, X13
	VPBROADCASTQ X13, Y13
	XORQ         R8, R8

columns:
	CMPQ R8, BX
	JGE  ranksdone
	XORQ R9, R9

candidates:
	CMPQ    R9, CX
	JGE     nextcolumns
	MOVQ    R9, AX
	IMULQ   BX, AX
	ADDQ    R8, AX
	LEAQ    (SI)(AX*1), R10
	LEAQ    (R10)(BX*2), R13
	VMOVUPD (R10), Y0
	VMOVUPD (R10)(BX*1), Y1
	VMOVUPD (R13), Y2
	VMOVUPD (R13)(BX*1), Y3
	VPXOR   Y4, Y4, Y4
	VPXOR   Y5, Y5, Y5
	VPXOR   Y6, Y6, Y6
	VPXOR   Y7, Y7, Y7
	LEAQ    (SI)(R8*1), R12
	MOVQ    R9, DX
	TESTQ   DX, DX
	JZ      inside

below:
	COUNT(GE)
	ADDQ BX, R12
	DECQ DX
	JNZ  below

inside:
	PAIR(GT, Y0, Y1, Y4)
	PAIR(GT, Y0, Y2, Y4)
	PAIR(GT, Y0, Y3, Y4)
	PAIR(GE, Y1, Y0, Y5)
	PAIR(GT, Y1, Y2, Y5)
	PAIR(GT, Y1, Y3, Y5)
	PAIR(GE, Y2, Y0, Y6)
	PAIR(GE, Y2, Y1, Y6)
	PAIR(GT, Y2, Y3, Y6)
	PAIR(GE, Y3, Y0, Y7)
	PAIR(GE, Y3, Y1, Y7)
	PAIR(GE, Y3, Y2, Y7)
	LEAQ (R12)(BX*4), R12
	MOVQ CX, DX
	SUBQ R9, DX
	SUBQ $4, DX
	JZ   store

above:
	COUNT(GT)
	ADDQ BX, R12
	DECQ DX
	JNZ  above

store:
	NANLAST(Y0, Y4)
	NANLAST(Y1, Y5)
	NANLAST(Y2, Y6)
	NANLAST(Y3, Y7)
	VPUNPCKLQDQ Y5, Y4, Y8
	VPUNPCKHQDQ Y5, Y4, Y9
	VPUNPCKLQDQ Y7, Y6, Y10
	VPUNPCKHQDQ Y7, Y6, Y11
	VPERM2I128  $0x20, Y10, Y8, Y4
	VPERM2I128  $0x20, Y11, Y9, Y5
	VPERM2I128  $0x31, Y10, Y8, Y6
	VPERM2I128  $0x31, Y11, Y9, Y7
	MOVQ        R8, AX
	IMULQ       CX, AX
	LEAQ        (DI)(AX*1), R11
	LEAQ        (R11)(R9*8), R11
	LEAQ        (R11)(BX*2), R13
	VMOVDQU     Y4, (R11)
	VMOVDQU     Y5, (R11)(BX*1)
	VMOVDQU     Y6, (R13)
	VMOVDQU     Y7, (R13)(BX*1)
	ADDQ        $4, R9
	JMP         candidates

nextcolumns:
	ADDQ $32, R8
	JMP  columns

ranksdone:
	VZEROUPPER
	RET

// func voteErrorsAVX2(near []float64, order []int64, s, w []float64, n, nb, k, stride, nt int, eps float64, rows int) (total float64, ok bool)
//
// Per query: the weights four at a time into w, den one scalar add
// chain over w, then each group of four targets: the numerators as
// packed products and sums in neighbour order, the quotients, and the
// relative errors, whose lanes up to nt join the total one at a time.
//
// Register use:
//
//	SI, DI      the query's near and order rows;  R10  n in bytes
//	R8, R9      s, w;  BX  the query's score row;  R13  stride in bytes
//	R11         queries left;  R12  k;  DX  the target group's byte offset
//	AX, CX      neighbour index and offset, neighbour r
//	X0          total;  Y1  weights;  Y2  numerators, then errors
//	Y3, X6      temporaries;  Y4  den;  Y5  actual scores
//	Y13-Y15     abs mask, 1, eps
TEXT ·voteErrorsAVX2(SB), NOSPLIT, $0-161
	MOVQ         near_base+0(FP), SI
	MOVQ         order_base+24(FP), DI
	MOVQ         s_base+48(FP), R8
	MOVQ         w_base+72(FP), R9
	MOVQ         n+96(FP), R10
	SHLQ         $3, R10
	MOVQ         nb+104(FP), R11
	MOVQ         k+112(FP), R12
	MOVQ         stride+120(FP), R13
	SHLQ         $3, R13
	VBROADCASTSD eps+136(FP), Y15
	VBROADCASTSD expc<>+88(SB), Y14
	VPCMPEQQ     Y13, Y13, Y13
	VPSRLQ       $1, Y13, Y13
	MOVQ         R8, BX
	VXORPD       X0, X0, X0

query:
	XORQ CX, CX

weights:
	VMOVUPD (SI)(CX*8), Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y15, Y1, Y1
	VDIVPD  Y1, Y14, Y1
	VMOVUPD Y1, (R9)(CX*8)
	ADDQ    $4, CX
	CMPQ    CX, R12
	JLT     weights
	VXORPD  X4, X4, X4
	XORQ    CX, CX

den:
	VADDSD (R9)(CX*8), X4, X4
	INCQ   CX
	CMPQ   CX, R12
	JLT    den
	VBROADCASTSD X4, Y4
	XORQ         DX, DX

targets:
	VXORPD Y2, Y2, Y2
	XORQ   CX, CX

numerators:
	MOVQ         (DI)(CX*8), AX
	CMPQ         AX, rows+144(FP)
	JAE          outside
	IMULQ        R13, AX
	ADDQ         DX, AX
	VBROADCASTSD (R9)(CX*8), Y3
	VMULPD       (R8)(AX*1), Y3, Y3
	VADDPD       Y3, Y2, Y2
	INCQ         CX
	CMPQ         CX, R12
	JLT          numerators
	VDIVPD       Y4, Y2, Y2
	VMOVUPD      (BX)(DX*1), Y5
	VSUBPD       Y5, Y2, Y2
	VANDPD       Y13, Y2, Y2
	VDIVPD       Y5, Y2, Y2

	// add the group's lanes below nt: AX = bytes of targets left
	MOVQ         nt+128(FP), AX
	SHLQ         $3, AX
	SUBQ         DX, AX
	VADDSD       X2, X0, X0
	CMPQ         AX, $8
	JLE          nexttargets
	VUNPCKHPD    X2, X2, X3
	VADDSD       X3, X0, X0
	CMPQ         AX, $16
	JLE          nexttargets
	VEXTRACTF128 $1, Y2, X6
	VADDSD       X6, X0, X0
	CMPQ         AX, $24
	JLE          nexttargets
	VUNPCKHPD    X6, X6, X6
	VADDSD       X6, X0, X0

nexttargets:
	ADDQ $32, DX
	CMPQ AX, $32
	JGT  targets
	ADDQ R10, SI
	ADDQ R10, DI
	ADDQ R13, BX
	DECQ R11
	JNZ  query
	VMOVSD X0, total+152(FP)
	MOVB   $1, ok+160(FP)
	VZEROUPPER
	RET

outside:
	MOVB $0, ok+160(FP)
	VZEROUPPER
	RET
