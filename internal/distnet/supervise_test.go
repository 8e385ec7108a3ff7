package distnet

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// shCmd builds a Start hook running one shell command, recording the epoch
// of every launch.
func shCmd(script string, mu *sync.Mutex, epochs *[]int) func(epoch int) (*exec.Cmd, error) {
	return func(epoch int) (*exec.Cmd, error) {
		if mu != nil {
			mu.Lock()
			*epochs = append(*epochs, epoch)
			mu.Unlock()
		}
		return exec.Command("sh", "-c", script), nil
	}
}

func TestSupervisorCleanExit(t *testing.T) {
	var mu sync.Mutex
	var epochs []int
	s, err := Supervise(SuperviseConfig{Start: shCmd("exit 0", &mu, &epochs)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("clean exit reported %v", err)
	}
	if s.Respawns() != 0 {
		t.Errorf("clean exit triggered %d respawns", s.Respawns())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 1 || epochs[0] != 0 {
		t.Errorf("launch epochs = %v, want [0]", epochs)
	}
}

func TestSupervisorExhaustsRespawnBudget(t *testing.T) {
	var mu sync.Mutex
	var epochs []int
	s, err := Supervise(SuperviseConfig{
		Start:       shCmd("exit 3", &mu, &epochs),
		MaxRespawns: 2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Wait()
	if !errors.Is(err, ErrRespawnBudget) {
		t.Fatalf("want ErrRespawnBudget, got %v", err)
	}
	if s.Respawns() != 2 {
		t.Errorf("respawns = %d, want 2", s.Respawns())
	}
	// Every relaunch must carry a strictly bumped incarnation epoch — that
	// is what lets the rejoin path distinguish the new process from stale
	// packets of the dead one.
	mu.Lock()
	defer mu.Unlock()
	want := []int{0, 1, 2}
	if len(epochs) != len(want) {
		t.Fatalf("launch epochs = %v, want %v", epochs, want)
	}
	for i := range want {
		if epochs[i] != want[i] {
			t.Fatalf("launch epochs = %v, want %v", epochs, want)
		}
	}
}

func TestSupervisorKillTriggersRespawn(t *testing.T) {
	var mu sync.Mutex
	var epochs []int
	s, err := Supervise(SuperviseConfig{
		Start: shCmd("sleep 60", &mu, &epochs),
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Kill() // the fault-injection entry point: SIGKILL the live child
	deadline := time.Now().Add(10 * time.Second)
	for s.Respawns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kill never triggered a respawn")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if e := s.Epoch(); e < 1 {
		t.Errorf("post-respawn epoch = %d, want >= 1", e)
	}
	s.Stop()
	if err := s.Wait(); err != nil {
		t.Errorf("stop after respawn reported %v", err)
	}
}

func TestSupervisorStopIsNotACrash(t *testing.T) {
	s, err := Supervise(SuperviseConfig{Start: shCmd("sleep 60", nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if err := s.Wait(); err != nil {
		t.Fatalf("deliberate stop reported %v", err)
	}
	if s.Respawns() != 0 {
		t.Errorf("stop triggered %d respawns", s.Respawns())
	}
}

// TestSupervisorStopCutsBackoffShort: a Stop during a respawn backoff ends
// supervision at once. The stop lands on the log line of the third respawn,
// whose backoff is 400 ms; Wait must return well inside it.
func TestSupervisorStopCutsBackoffShort(t *testing.T) {
	sup := make(chan *Supervisor, 1)
	var stoppedAt time.Time
	s, err := Supervise(SuperviseConfig{
		Start: shCmd("exit 3", nil, nil),
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			t.Log(line)
			if strings.Contains(line, "respawn 3/3") {
				stoppedAt = time.Now()
				(<-sup).Stop()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sup <- s
	if err := s.Wait(); err != nil {
		t.Fatalf("stop during a backoff reported %v", err)
	}
	if stoppedAt.IsZero() {
		t.Fatal("the third respawn was never logged")
	}
	if d := time.Since(stoppedAt); d > 100*time.Millisecond {
		t.Errorf("Wait returned %v after Stop, want < 100ms: the backoff ran out first", d)
	}
}

func TestPrefixWriterTagsLines(t *testing.T) {
	var out bytes.Buffer
	w := NewPrefixWriter(&out, "[node 2] ")

	// Partial lines buffer until their newline arrives, even across writes.
	w.Write([]byte("hel"))
	w.Write([]byte("lo\nwor"))
	if got := out.String(); got != "[node 2] hello\n" {
		t.Fatalf("after partial writes: %q", got)
	}
	// A single write holding several lines prefixes each one.
	w.Write([]byte("ld\na\nb\n"))
	want := "[node 2] hello\n[node 2] world\n[node 2] a\n[node 2] b\n"
	if got := out.String(); got != want {
		t.Fatalf("multi-line write: %q, want %q", got, want)
	}
	// Flush publishes a trailing partial line with its own newline.
	w.Write([]byte("tail"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want+"[node 2] tail\n" {
		t.Fatalf("after flush: %q", got)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("empty flush: %v", err)
	}
}
