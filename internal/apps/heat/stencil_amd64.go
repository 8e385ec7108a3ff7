package heat

// rowAVX2 computes the interior cells [1, 1+n) of one row four at a time,
// where n is the largest multiple of four with n ≤ len(cur)−2, and returns
// n. above, below and dst are at least len(cur) long. Implemented in
// stencil_amd64.s; callers check hasAVX2 first.
//
//go:noescape
func rowAVX2(dst, above, cur, below []float64, alpha float64) int

// cpuid and xgetbv are the CPU feature probes (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches: CPUID leaf 1 OSXSAVE
// (ECX bit 27) and AVX (bit 28), XCR0 SSE and AVX state (bits 1 and 2), and
// CPUID leaf 7 AVX2 (EBX bit 5).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const ymmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
