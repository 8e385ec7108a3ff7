package sched_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/sched"
)

// TestServeDrainAndResume drives the service loop the way speccoord -serve
// does, over a real listener with real node processes: a job submitted over
// HTTP is running when the context is cancelled; Serve drains and returns
// nil with the queue file and a full custody namespace on disk; a second
// Serve on the same directories resumes the job from custody and finishes
// it.
func TestServeDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scheduler run is not -short")
	}
	custodyDir, stateDir := t.TempDir(), t.TempDir()
	serve := func(ctx context.Context) (url string, done chan error) {
		t.Helper()
		store, err := checkpoint.NewFileStore(custodyDir)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done = make(chan error, 1)
		go func() {
			done <- sched.Serve(ctx, ln, sched.Config{
				TotalRanks: 3, Launch: testLauncher, Custody: store, StateDir: stateDir,
				RunTimeout: 3 * time.Minute, EvictGrace: 20 * time.Second, Logf: t.Logf,
			}, time.Minute)
		}()
		return "http://" + ln.Addr().String(), done
	}
	post := func(url string) (int, sched.JobStatus) {
		t.Helper()
		resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(
			`{"name":"survivor","priority":2,"spec":{"app":"heat","procs":3,"max_iter":3000,"fw":2,"rows":48,"cols":32,"checkpoint_every":5}}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st sched.JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}
	status := func(url, id string) sched.JobStatus {
		t.Helper()
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st sched.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	covered := func(id string) int {
		files, _ := filepath.Glob(filepath.Join(custodyDir, id, "proc-*.ckpt"))
		return len(files)
	}
	await := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(90 * time.Second); !ok(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	url, done := serve(ctx)
	code, job := post(url)
	if code != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: %d %+v", code, job)
	}
	await("full custody of the running job", func() bool { return covered(job.ID) == 3 })

	// Every long-lived process gets pprof from the one obs endpoint.
	if resp, err := http.Get(url + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("service has no pprof: %v %v", resp, err)
	}

	// Cancel: Serve drains and returns. Submissions refused with 503 while
	// a drain is under way are TestHTTPAPI's check; the drain window here
	// lasts as long as one eviction, too short to hit from outside.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after cancel: %v", err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "sched-queue.json")); err != nil {
		t.Fatalf("queue file not persisted by the drain: %v", err)
	}
	if n := covered(job.ID); n != 3 {
		t.Fatalf("drained job has %d/3 snapshots in custody", n)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	url2, done2 := serve(ctx2)
	var final sched.JobStatus
	await("the resumed job to finish", func() bool {
		final = status(url2, job.ID)
		return final.State == sched.StateDone || final.State == sched.StateFailed
	})
	if final.State != sched.StateDone || final.Preemptions < 1 || final.Restores < 1 {
		t.Errorf("resumed job: %s preemptions=%d restores=%d err=%q, want done with >=1 preemption and >=1 restore",
			final.State, final.Preemptions, final.Restores, final.Error)
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Errorf("second Serve: %v", err)
	}
}
