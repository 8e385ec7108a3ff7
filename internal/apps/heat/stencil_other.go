//go:build !amd64

package heat

// hasAVX2 is false off amd64: stencilRow runs the Go loop alone.
func hasAVX2() bool { return false }

// rowAVX2 is never called off amd64; it computes no cells.
func rowAVX2(dst, above, cur, below []float64, alpha float64) int { return 0 }
