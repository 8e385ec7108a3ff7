//go:build !linux

package inbox

func newTimer(wake chan struct{}) timer { return newGoTimer(wake) }
