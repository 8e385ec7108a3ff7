package sched_test

// Queue-only scheduler tests: with a nil launcher the scheduler admits,
// orders and persists jobs without ever starting a fleet, which makes
// ordering, quota and recovery behaviour testable without processes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"specomp/internal/distnet"
	"specomp/internal/sched"
)

// submit is shorthand for a queue-only submission.
func submit(t *testing.T, s *sched.Scheduler, name, tenant string, priority, procs int) sched.JobStatus {
	t.Helper()
	st, err := s.Submit(sched.JobSpec{
		Name: name, Tenant: tenant, Priority: priority,
		Spec: distnet.RunSpec{App: "heat", Procs: procs, MaxIter: 10},
	})
	if err != nil {
		t.Fatalf("submitting %s: %v", name, err)
	}
	return st
}

func queueOnly(t *testing.T, cfg sched.Config) *sched.Scheduler {
	t.Helper()
	if cfg.TotalRanks == 0 {
		cfg.TotalRanks = 8
	}
	s, err := sched.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestQueueOrdering: the queue dispatches by priority, FIFO within a
// priority band.
func TestQueueOrdering(t *testing.T) {
	s := queueOnly(t, sched.Config{})
	submit(t, s, "low-1", "", 1, 2)
	submit(t, s, "high-1", "", 5, 2)
	submit(t, s, "low-2", "", 1, 2)
	submit(t, s, "urgent", "", 9, 2)
	submit(t, s, "high-2", "", 5, 2)

	var got []string
	for _, st := range s.Queue().Pending {
		got = append(got, st.Name)
	}
	want := []string{"urgent", "high-1", "high-2", "low-1", "low-2"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}

	// Jobs carry scheduler-assigned ids and job labels.
	st := s.Queue().Pending[0]
	if st.ID == "" || st.State != sched.StatePending {
		t.Fatalf("head of queue: %+v", st)
	}
}

// TestCancelQueued: DELETE on a queued job removes it from the queue.
func TestCancelQueued(t *testing.T) {
	s := queueOnly(t, sched.Config{})
	a := submit(t, s, "a", "", 0, 2)
	submit(t, s, "b", "", 0, 2)
	st, err := s.Cancel(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != sched.StateCanceled {
		t.Fatalf("canceled job state %s", st.State)
	}
	if q := s.Queue().Pending; len(q) != 1 || q[0].Name != "b" {
		t.Fatalf("queue after cancel: %+v", q)
	}
	if _, err := s.Cancel(a.ID); !errors.Is(err, sched.ErrJobFinished) {
		t.Fatalf("double cancel: %v", err)
	}
	if _, err := s.Cancel("job-9999"); !errors.Is(err, sched.ErrUnknownJob) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

// TestTenantQuotas: per-tenant job and rank caps reject at admission with
// ErrQuota; other tenants are unaffected.
func TestTenantQuotas(t *testing.T) {
	s := queueOnly(t, sched.Config{
		TotalRanks: 16, MaxJobsPerTenant: 2, MaxRanksPerTenant: 6,
	})
	submit(t, s, "a1", "alice", 0, 2)
	submit(t, s, "a2", "alice", 0, 2)
	_, err := s.Submit(sched.JobSpec{Tenant: "alice", Spec: distnet.RunSpec{App: "heat", Procs: 2, MaxIter: 10}})
	if !errors.Is(err, sched.ErrQuota) {
		t.Fatalf("third alice job: %v, want ErrQuota", err)
	}

	submit(t, s, "b1", "bob", 0, 4)
	_, err = s.Submit(sched.JobSpec{Tenant: "bob", Spec: distnet.RunSpec{App: "heat", Procs: 3, MaxIter: 10}})
	if !errors.Is(err, sched.ErrQuota) {
		t.Fatalf("bob rank overflow: %v, want ErrQuota", err)
	}
	// 4 + 2 = 6 fits the rank quota exactly.
	submit(t, s, "b2", "bob", 0, 2)

	if st := s.Stats(); st.Rejected != 2 || st.Submitted != 4 {
		t.Fatalf("stats %+v, want 2 rejected / 4 submitted", st)
	}
	u := s.Queue().Tenants["bob"]
	if u.Jobs != 2 || u.Ranks != 6 {
		t.Fatalf("bob usage %+v", u)
	}
}

// TestSubmitValidation: infeasible and malformed specs are rejected, and
// defaults (tenant, name, checkpoint cadence, job label) are applied.
func TestSubmitValidation(t *testing.T) {
	s := queueOnly(t, sched.Config{TotalRanks: 4})
	if _, err := s.Submit(sched.JobSpec{Spec: distnet.RunSpec{App: "heat", Procs: 8, MaxIter: 10}}); !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("oversized job: %v, want ErrInfeasible", err)
	}
	if _, err := s.Submit(sched.JobSpec{Spec: distnet.RunSpec{App: "no-such-app", Procs: 2}}); err == nil {
		t.Fatal("unknown app was admitted")
	}
	st := submit(t, s, "", "", 0, 2)
	if st.Tenant != "default" || st.Name != "heat" {
		t.Fatalf("defaults not applied: %+v", st)
	}
	full, err := s.Status(st.ID)
	if err != nil || full.App != "heat" {
		t.Fatalf("status: %+v, %v", full, err)
	}
}

// TestQueuePersistRecovery: a drained scheduler persists its queue; a new
// scheduler on the same state dir resumes it — same ids, same dispatch
// order, id counter continues.
func TestQueuePersistRecovery(t *testing.T) {
	dir := t.TempDir()
	s := queueOnly(t, sched.Config{StateDir: dir})
	submit(t, s, "low", "alice", 1, 2)
	hi := submit(t, s, "high", "bob", 7, 2)

	if err := s.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(sched.JobSpec{Spec: distnet.RunSpec{App: "heat", Procs: 2, MaxIter: 10}}); !errors.Is(err, sched.ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sched-queue.json")); err != nil {
		t.Fatalf("queue file not persisted: %v", err)
	}

	s2 := queueOnly(t, sched.Config{StateDir: dir})
	q := s2.Queue()
	if len(q.Pending) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(q.Pending))
	}
	if q.Pending[0].ID != hi.ID || q.Pending[0].Name != "high" || q.Pending[0].Tenant != "bob" {
		t.Fatalf("recovered head %+v, want the high-priority job %s", q.Pending[0], hi.ID)
	}
	if _, err := os.Stat(filepath.Join(dir, "sched-queue.json")); !os.IsNotExist(err) {
		t.Fatalf("queue file not consumed: %v", err)
	}
	// The id counter continued: no id collision with recovered jobs.
	st := submit(t, s2, "new", "", 0, 2)
	if st.ID == hi.ID || st.ID == q.Pending[1].ID {
		t.Fatalf("recycled job id %s", st.ID)
	}
}

// TestRetiredWireKnobInStoredSpecs: the spec's wire object (delta,
// linger_us, no_batch, max_batch_*), hold_sends and max_overrun no longer
// exist. A queue file written by a build that still had them must load —
// the spec it held otherwise unchanged — while a fresh submission naming
// one is refused like any other unknown field.
func TestRetiredWireKnobInStoredSpecs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sched-queue.json")
	s := queueOnly(t, sched.Config{StateDir: dir})
	job := submit(t, s, "old", "alice", 1, 2)
	if err := s.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// readQueue parses the queue file generically and picks out the one
	// persisted job's spec.
	readQueue := func() (file, spec map[string]any) {
		t.Helper()
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &file); err != nil {
			t.Fatal(err)
		}
		return file, file["jobs"].([]any)[0].(map[string]any)["spec"].(map[string]any)
	}
	file, want := readQueue()
	if _, ok := want["wire"]; ok {
		t.Fatalf("persisted spec still has a wire key: %v", want)
	}
	want["wire"] = map[string]any{"delta": true, "linger_us": 150, "no_batch": true, "max_batch_msgs": 32, "max_batch_bytes": 49152}
	want["hold_sends"] = true
	want["max_overrun"] = 3
	blob, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	delete(want, "wire") // want is again the spec as first persisted
	delete(want, "hold_sends")
	delete(want, "max_overrun")

	s2 := queueOnly(t, sched.Config{StateDir: dir})
	if q := s2.Queue(); len(q.Pending) != 1 || q.Pending[0].ID != job.ID {
		t.Fatalf("recovered queue %+v, want the one job %s", q.Pending, job.ID)
	}
	if err := s2.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, got := readQueue(); !reflect.DeepEqual(got, want) {
		t.Fatalf("spec changed across the reload:\n got %v\nwant %v", got, want)
	}

	srv := httptest.NewServer(queueOnly(t, sched.Config{}).Handler())
	defer srv.Close()
	for _, knob := range []string{`"wire":{"delta":true}`, `"wire":{"linger_us":150}`, `"hold_sends":true`, `"max_overrun":3`} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(
			`{"spec":{"app":"heat","procs":2,"max_iter":10,`+knob+`}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submission naming %s: %d, want 400", knob, resp.StatusCode)
		}
	}
}

// TestHTTPAPI drives the service surface end to end against a queue-only
// scheduler: submit, get, list, queue, cancel, quota and validation
// statuses, and the merged /metrics exposition.
func TestHTTPAPI(t *testing.T) {
	s := queueOnly(t, sched.Config{TotalRanks: 8, MaxJobsPerTenant: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, sched.JobStatus) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st sched.JobStatus
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp, st
	}

	resp, st := post(`{"name":"first","priority":3,"spec":{"app":"heat","procs":2,"max_iter":10}}`)
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	if resp, _ := post(`{"spec":{"app":"nope","procs":2}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid app: %d, want 400", resp.StatusCode)
	}
	post(`{"tenant":"default","spec":{"app":"heat","procs":2,"max_iter":10}}`)
	if resp, _ := post(`{"spec":{"app":"heat","procs":2,"max_iter":10}}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota overflow: %d, want 429", resp.StatusCode)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	if code, body := get("/jobs/" + st.ID); code != http.StatusOK || !bytes.Contains(body, []byte("first")) {
		t.Fatalf("GET job: %d %s", code, body)
	}
	if code, _ := get("/jobs/job-9999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job: %d, want 404", code)
	}
	if code, body := get("/queue"); code != http.StatusOK || !bytes.Contains(body, []byte(`"total_ranks": 8`)) {
		t.Fatalf("GET queue: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!bytes.Contains(body, []byte("specomp_sched_queue_depth")) ||
		!bytes.Contains(body, []byte(`specomp_sched_jobs_total{outcome="submitted"}`)) {
		t.Fatalf("GET metrics: %d %s", code, body)
	}
	if code, body := get("/fleet"); code != http.StatusOK || !bytes.Contains(body, []byte(`"queue"`)) {
		t.Fatalf("GET fleet: %d %s", code, body)
	}
	if code, _ := get("/fleet?job=job-9999"); code != http.StatusNotFound {
		t.Fatalf("GET fleet filter miss: %d, want 404", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp2.StatusCode)
	}

	// Draining flips submissions to 503.
	if err := s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if resp, _ := post(`{"tenant":"t2","spec":{"app":"heat","procs":2,"max_iter":10}}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}
