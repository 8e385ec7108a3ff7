package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestHasAVX2MatchesCPUInfo checks the CPUID/XGETBV probe against the
// kernel's view: Linux lists avx2 among a CPU's flags only when the CPU has
// it and the kernel saves the YMM state.
func TestHasAVX2MatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if want := slices.Contains(flags, "avx2"); HasAVX2() != want {
		t.Errorf("HasAVX2() = %v, /proc/cpuinfo lists avx2: %v", HasAVX2(), want)
	}
}
