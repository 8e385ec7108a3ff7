package heat

// rowAVX2 computes the interior cells [1, 1+n) of one row four at a time,
// where n is the largest multiple of four with n ≤ len(cur)−2, and returns
// n. above, below and dst are at least len(cur) long. Implemented in
// stencil_amd64.s; callers check cpu.HasAVX2 first.
//
//go:noescape
func rowAVX2(dst, above, cur, below []float64, alpha float64) int
