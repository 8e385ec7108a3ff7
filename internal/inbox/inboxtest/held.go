package inboxtest

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// Held is what a process holds that an inbox's timer could leave behind:
// goroutines and, on Linux, open timerfd descriptors.
type Held struct{ Goroutines, TimerFDs int }

// HeldNow counts both.
func HeldNow() Held {
	h := Held{Goroutines: runtime.NumGoroutine()}
	fds, _ := os.ReadDir("/proc/self/fd") // absent off Linux: no timerfds
	for _, fd := range fds {
		if l, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); l == "anon_inode:[timerfd]" {
			h.TimerFDs++
		}
	}
	return h
}

// Released fails t unless, within 5 s, the process holds no more goroutines
// and timerfds than before: whatever a run started has wound down.
func Released(t *testing.T, before Held) {
	t.Helper()
	var now Held
	for give := time.Now().Add(5 * time.Second); time.Now().Before(give); time.Sleep(time.Millisecond) {
		if now = HeldNow(); now.Goroutines <= before.Goroutines && now.TimerFDs <= before.TimerFDs {
			return
		}
	}
	t.Fatalf("5 s after the run, %d goroutines and %d timerfds are left; %d and %d before it",
		now.Goroutines, now.TimerFDs, before.Goroutines, before.TimerFDs)
}
