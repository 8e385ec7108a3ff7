//go:build !amd64

package cpu

// HasAVX2 is false off amd64: every kernel runs its Go loop alone.
func HasAVX2() bool { return false }
