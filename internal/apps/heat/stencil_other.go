//go:build !amd64

package heat

// rowAVX2 is never called off amd64, where cpu.HasAVX2 is false; it
// computes no cells.
func rowAVX2(dst, above, cur, below []float64, alpha float64) int { return 0 }
