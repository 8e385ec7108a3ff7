package nbody

// accelAVX2 adds to b's four accumulators the acceleration that every
// particle of set exerts on b's four targets, one target per lane, with
// accelInto's per-pair expression and skip. Implemented in vector_amd64.s;
// callers check cpu.HasAVX2 first.
//
//go:noescape
func accelAVX2(b *accelBlock, set []Particle, grav, soft2 float64)

// bracketAVX2 decides eq. 11 for b's four remote particles, one per lane,
// against every particle of loc by the brackets alone: d² < lo is bad and
// d² > hi is accepted. It writes each lane's bad count into b.bad and
// reports whether every pair was decided; a pair inside its bracket or with
// a NaN d² makes it report false. Implemented in vector_amd64.s; callers
// check cpu.HasAVX2 first.
//
//go:noescape
func bracketAVX2(b *bracketBlock, loc []Particle) bool
