package nbody

// Particle is one body: mass, position and velocity. The paper's messages
// carry exactly this state ("the current position and velocity of all its
// particles"), which is also what the speculation function consumes.
type Particle struct {
	Mass float64
	Pos  Vec3
	Vel  Vec3
}

// Floats is the number of float64 values one particle encodes to.
const Floats = 7

// Encode flattens particles into a fresh float64 slice (mass, pos, vel per
// particle), the wire format used on the simulated cluster.
func Encode(ps []Particle) []float64 {
	return encodeInto(make([]float64, len(ps)*Floats), ps)
}

// encodeInto is Encode into dst, which must hold len(ps)*Floats values.
func encodeInto(dst []float64, ps []Particle) []float64 {
	for i, p := range ps {
		d := dst[i*Floats : (i+1)*Floats]
		d[0] = p.Mass
		d[1], d[2], d[3] = p.Pos.X, p.Pos.Y, p.Pos.Z
		d[4], d[5], d[6] = p.Vel.X, p.Vel.Y, p.Vel.Z
	}
	return dst
}

// Decode parses a flattened particle slice into a fresh one. It panics if
// the length is not a multiple of Floats.
func Decode(data []float64) []Particle { return decodeInto(nil, data) }

// decodeInto is Decode reusing dst's backing array when it is large enough.
func decodeInto(dst []Particle, data []float64) []Particle {
	if len(data)%Floats != 0 {
		panic("nbody: malformed particle data")
	}
	dst = resize(dst, len(data)/Floats)
	for i := range dst {
		d := data[i*Floats : (i+1)*Floats]
		dst[i] = Particle{
			Mass: d[0],
			Pos:  Vec3{d[1], d[2], d[3]},
			Vel:  Vec3{d[4], d[5], d[6]},
		}
	}
	return dst
}

// resize returns s with length n and unspecified contents, reallocating
// only when its capacity is too small.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
