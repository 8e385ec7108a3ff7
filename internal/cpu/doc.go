// Package cpu probes the processor for the vector instructions the app
// kernels use (internal/apps/heat, internal/nbody). Each kernel's package
// reads the probe once at init and runs its portable Go loop when the answer
// is no; nothing else selects a loop.
package cpu
