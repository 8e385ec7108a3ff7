#include "textflag.h"

// func rowAVX2(dst, above, cur, below []float64, alpha float64) int
//
// For c = 1, 5, 9, … while c+4 ≤ len(cur)−1, cells c..c+3 get
//
//	x + α·((((above+below)+left)+right) − 4x)
//
// as SerialStep evaluates it: the same IEEE-754 double operations in the
// same order, one lane per cell, no fused multiply-add. VADDPD a, b, d is
// d = b + a in Go's operand order; VSUBPD a, b, d is d = b − a.
TEXT ·rowAVX2(SB), NOSPLIT, $0-112
	MOVQ cur_len+56(FP), CX
	SUBQ $2, CX                   // interior cells
	JLE  none
	ANDQ $~3, CX                  // whole blocks of four
	JZ   none
	MOVQ CX, ret+104(FP)
	MOVQ dst_base+0(FP), DI
	MOVQ above_base+24(FP), R8
	MOVQ cur_base+48(FP), SI
	MOVQ below_base+72(FP), R9
	VBROADCASTSD alpha+96(FP), Y6
	MOVQ $0x4010000000000000, AX  // 4.0
	VMOVQ AX, X7                  // VEX form: no SSE/AVX transition
	VPBROADCASTQ X7, Y7
	MOVQ $8, AX                   // byte offset of cell 1
	LEAQ 8(CX*8), CX              // byte offset one past the last cell

loop:
	VMOVUPD (R8)(AX*1), Y0        // above
	VADDPD  (R9)(AX*1), Y0, Y0    // + below
	VADDPD  -8(SI)(AX*1), Y0, Y0  // + left
	VADDPD  8(SI)(AX*1), Y0, Y0   // + right
	VMOVUPD (SI)(AX*1), Y1        // x
	VMULPD  Y7, Y1, Y2            // 4x
	VSUBPD  Y2, Y0, Y0            // sum − 4x
	VMULPD  Y6, Y0, Y0            // α·(…)
	VADDPD  Y0, Y1, Y0            // x + α·(…)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

none:
	MOVQ $0, ret+104(FP)
	RET
