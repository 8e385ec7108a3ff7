//go:build race

package realtime

// raceEnabled reports that the race detector is active; its instrumentation
// allocates, so the exact-malloc-count assertions skip themselves.
const raceEnabled = true
