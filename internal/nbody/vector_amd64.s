#include "textflag.h"

// Both kernels walk a []Particle in place: 56 bytes a particle, mass at
// offset 0 and position at 8, 16 and 24. Each lane performs the same IEEE-754
// double operations, in the same order, as the Go loop performs for its
// target or remote particle, and neither kernel fuses a multiply into an
// add. In Go's operand order VSUBPD a, b, d is d = b − a, VDIVPD a, b, d is
// d = b / a, VCMPPD $p, a, b, d compares b with a, and VBLENDVPD m, a, b, d
// takes a in the lanes where m is set and b elsewhere.

// func accelAVX2(b *accelBlock, set []Particle, grav, soft2 float64)
//
// For each source j, in each lane:
//
//	d = pos_j − target;  r² = (dx·dx + dy·dy) + dz·dz
//	if r² ≠ 0 (true for NaN): acc = acc + d·((G·m_j)·(1/((r²+ε²)·√(r²+ε²))))
//
// The update is computed in every lane and blended into the accumulator
// only where r² ≠ 0: a skipped pair leaves the sum's bits untouched (adding
// a masked-off value would add 0·Inf = NaN when ε = 0).
TEXT ·accelAVX2(SB), NOSPLIT, $0-48
	MOVQ b+0(FP), DI
	MOVQ set_base+8(FP), SI
	MOVQ set_len+16(FP), CX
	TESTQ CX, CX
	JZ   none
	VMOVUPD 0(DI), Y0             // target x
	VMOVUPD 32(DI), Y1            // target y
	VMOVUPD 64(DI), Y2            // target z
	VMOVUPD 96(DI), Y3            // acc x
	VMOVUPD 128(DI), Y4           // acc y
	VMOVUPD 160(DI), Y5           // acc z
	VBROADCASTSD grav+32(FP), Y6
	VBROADCASTSD soft2+40(FP), Y7
	VXORPD  Y8, Y8, Y8            // 0
	MOVQ $0x3ff0000000000000, AX  // 1.0
	VMOVQ AX, X9                  // VEX form: no SSE/AVX transition
	VPBROADCASTQ X9, Y9
	IMULQ $56, CX
	ADDQ SI, CX                   // one past the last source

loop:
	VBROADCASTSD 8(SI), Y10
	VSUBPD  Y0, Y10, Y10          // dx
	VBROADCASTSD 16(SI), Y11
	VSUBPD  Y1, Y11, Y11          // dy
	VBROADCASTSD 24(SI), Y12
	VSUBPD  Y2, Y12, Y12          // dz
	VMULPD  Y10, Y10, Y13
	VMULPD  Y11, Y11, Y14
	VADDPD  Y14, Y13, Y13
	VMULPD  Y12, Y12, Y14
	VADDPD  Y14, Y13, Y13         // r²
	VCMPPD  $4, Y8, Y13, Y15      // r² ≠ 0, NEQ_UQ: a NaN r² is not skipped
	VADDPD  Y7, Y13, Y13          // r² + ε²
	VSQRTPD Y13, Y14
	VMULPD  Y14, Y13, Y13         // (r²+ε²)·√(r²+ε²)
	VDIVPD  Y13, Y9, Y13          // 1/(…)
	VBROADCASTSD 0(SI), Y14
	VMULPD  Y6, Y14, Y14          // G·m
	VMULPD  Y13, Y14, Y13         // (G·m)·(1/(…))
	VMULPD  Y13, Y10, Y10
	VADDPD  Y10, Y3, Y10
	VBLENDVPD Y15, Y10, Y3, Y3    // acc x
	VMULPD  Y13, Y11, Y11
	VADDPD  Y11, Y4, Y11
	VBLENDVPD Y15, Y11, Y4, Y4    // acc y
	VMULPD  Y13, Y12, Y12
	VADDPD  Y12, Y5, Y12
	VBLENDVPD Y15, Y12, Y5, Y5    // acc z
	ADDQ $56, SI
	CMPQ SI, CX
	JNE  loop

	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VZEROUPPER

none:
	RET

// func bracketAVX2(b *bracketBlock, loc []Particle) bool
//
// For each local particle j, in each lane: d² = (dx·dx + dy·dy) + dz·dz
// with d = remote − pos_j; d² < lo counts one bad pair, d² > hi accepts,
// and anything else (inside the bracket, or NaN, for which both compares
// are false) leaves the pair undecided. Bad pairs are counted by
// subtracting the compare's all-ones mask (−1) from a quadword counter.
TEXT ·bracketAVX2(SB), NOSPLIT, $0-33
	MOVQ b+0(FP), DI
	MOVQ loc_base+8(FP), SI
	MOVQ loc_len+16(FP), CX
	VMOVUPD 0(DI), Y0             // remote x
	VMOVUPD 32(DI), Y1            // remote y
	VMOVUPD 64(DI), Y2            // remote z
	VMOVUPD 96(DI), Y3            // lo
	VMOVUPD 128(DI), Y4           // hi
	VPXOR   Y5, Y5, Y5            // bad counts
	VPCMPEQQ Y6, Y6, Y6           // lanes with every pair decided
	IMULQ $56, CX
	ADDQ SI, CX                   // one past the last local particle
	CMPQ SI, CX
	JEQ  done

loop:
	VBROADCASTSD 8(SI), Y7
	VSUBPD  Y7, Y0, Y7            // dx
	VBROADCASTSD 16(SI), Y8
	VSUBPD  Y8, Y1, Y8            // dy
	VBROADCASTSD 24(SI), Y9
	VSUBPD  Y9, Y2, Y9            // dz
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y7, Y7
	VMULPD  Y9, Y9, Y9
	VADDPD  Y9, Y7, Y7            // d²
	VCMPPD  $0x11, Y3, Y7, Y8     // d² < lo, LT_OQ
	VCMPPD  $0x11, Y7, Y4, Y9     // hi < d², LT_OQ
	VPSUBQ  Y8, Y5, Y5
	VORPD   Y8, Y9, Y9
	VANDPD  Y9, Y6, Y6
	ADDQ $56, SI
	CMPQ SI, CX
	JNE  loop

done:
	VMOVDQU Y5, 160(DI)
	VMOVMSKPD Y6, AX
	CMPL AX, $15
	SETEQ ret+32(FP)
	VZEROUPPER
	RET
