package cpu

// cpuid and xgetbv are the CPU feature probes (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// HasAVX2 reports whether the CPU implements AVX and AVX2 and the operating
// system saves the YMM registers across context switches: CPUID leaf 1
// OSXSAVE (ECX bit 27) and AVX (bit 28), XCR0 SSE and AVX state (bits 1 and
// 2), and CPUID leaf 7 AVX2 (EBX bit 5). That covers every instruction the
// kernels use: VEX-encoded loads, broadcasts, packed double arithmetic,
// square root, compare, blend and mask extraction (AVX), and packed quadword
// integer subtract and compare on YMM registers (AVX2). No kernel uses FMA
// or POPCNT.
func HasAVX2() bool {
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
