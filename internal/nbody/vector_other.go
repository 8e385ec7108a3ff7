//go:build !amd64

package nbody

// accelAVX2 is never called off amd64, where cpu.HasAVX2 is false.
func accelAVX2(b *accelBlock, set []Particle, grav, soft2 float64) {}

// bracketAVX2 is never called off amd64, where cpu.HasAVX2 is false; it
// decides nothing.
func bracketAVX2(b *bracketBlock, loc []Particle) bool { return false }
