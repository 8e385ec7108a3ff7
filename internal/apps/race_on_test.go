//go:build race

package apps_test

// raceEnabled reports that the race detector is active; its instrumentation
// allocates, so exact malloc-count assertions are skipped under -race.
const raceEnabled = true
