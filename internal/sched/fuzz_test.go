package sched

// The two decoders that read bytes the service does not control: a
// submission body off the network and the queue file off the disk. Neither
// may panic, and neither may put a job in the queue that Submit's own
// checks (RunSpec.Normalize, Procs <= TotalRanks) would refuse.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
)

const fuzzPool = 4

// checkQueue asserts the admission invariant over everything queued.
func checkQueue(t *testing.T, s *Scheduler) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.queue.ordered() {
		spec := j.Spec
		if err := spec.Normalize(); err != nil {
			t.Errorf("queued job %s: Normalize rejects its spec: %v", j.ID, err)
		}
		if j.Spec.Procs < 1 || j.Spec.Procs > fuzzPool {
			t.Errorf("queued job %s wants %d ranks of a %d-rank pool", j.ID, j.Spec.Procs, fuzzPool)
		}
	}
	for _, j := range s.jobs {
		if j.state == StateFailed && j.err == nil {
			t.Errorf("job %s failed without a reason", j.ID)
		}
	}
}

func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{ // TestHTTPAPI's bodies, and shapes near them
		`{"name":"first","priority":3,"spec":{"app":"heat","procs":2,"max_iter":10}}`,
		`{"spec":{"app":"nope","procs":2}}`,
		`{"tenant":"default","spec":{"app":"heat","procs":2,"max_iter":10}}`,
		`{"spec":{"app":"heat","procs":2,"max_iter":10,"wire":{"linger_us":150}}}`,
		`{"spec":{"app":"pipeline","procs":3,"placement":[2,0,1]}}`,
		`{"spec":{"app":"pipeline","procs":3,"placement":[0,0,0,0,0,0,0,0]}}`,
		`{"spec":{"app":"heat","procs":64,"rows":4}}`,
		`{"spec":{"app":"pipeline","procs":1000000000}}`,
		`{"spec":{"app":"pipeline","procs":3,"width":1000000000}}`,
		`{"spec":{"app":"jacobi","procs":-1,"fw":-2}}`,
		`{"spec":`, ``, `[]`, `{"spec":{"procs":1e99}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{TotalRanks: fuzzPool})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
			var req JobSpec
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Errorf("admitted a body the strict decoder refuses: %v", err)
			}
			if s.queue.Len() != 1 {
				t.Errorf("202 with %d jobs queued", s.queue.Len())
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if s.queue.Len() != 0 {
				t.Errorf("%d with a job queued", rec.Code)
			}
		default:
			t.Errorf("POST /jobs answered %d", rec.Code)
		}
		checkQueue(t, s)
	})
}

// TestSubmitBodyIsBounded: one POST cannot make the service buffer an
// arbitrarily large Placement; past maxSubmitBytes the answer is 413.
func TestSubmitBodyIsBounded(t *testing.T) {
	s, err := New(Config{TotalRanks: fuzzPool})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := `{"spec":{"app":"pipeline","procs":3,"placement":[` + strings.Repeat("0,", maxSubmitBytes) + `0]}}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte submission answered %d, want 413", len(body), rec.Code)
	}
	if s.queue.Len() != 0 {
		t.Error("an oversized submission was queued")
	}
}

// drainedQueueFile returns the queue file a drained queue-only scheduler
// with a pool of `pool` ranks writes for the given (procs, priority) jobs.
func drainedQueueFile(t testing.TB, pool int, jobs ...[2]int) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{TotalRanks: pool, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, j := range jobs {
		if _, err := s.Submit(JobSpec{Priority: j[1], Spec: distnet.RunSpec{App: "heat", Procs: j[0], MaxIter: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, queueFileName))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// loadQueue starts a fuzzPool-rank scheduler on a state dir holding blob.
func loadQueue(t *testing.T, blob []byte, custody *checkpoint.FileStore) (*Scheduler, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, queueFileName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{TotalRanks: fuzzPool, StateDir: dir, Custody: custody})
	if err == nil {
		t.Cleanup(s.Close)
	}
	return s, err
}

func FuzzLoadQueue(f *testing.F) {
	good := drainedQueueFile(f, 8, [2]int{2, 1}, [2]int{2, 7}) // TestQueuePersistRecovery's queue
	f.Add(good)
	f.Add(drainedQueueFile(f, 8, [2]int{6, 1}, [2]int{2, 1})) // head no longer fits fuzzPool
	f.Add(bytes.Replace(good, []byte(`"heat"`), []byte(`"nope"`), 1))
	f.Add(bytes.Replace(good, []byte(`"procs": 2`), []byte(`"procs": -3`), 1))
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"jobs":[{"id":"job-0000","spec":{}},{"id":"job-0000","spec":{"fw":-1}}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := loadQueue(t, blob, nil)
		if err != nil {
			return // an unreadable file is refused whole
		}
		var pq persistedQueue
		if err := json.Unmarshal(blob, &pq); err != nil {
			t.Fatalf("loaded a file json rejects: %v", err)
		}
		// Every entry is accounted for, queued or failed (entries sharing an
		// id share a map slot, so only count when the ids are distinct).
		ids := make(map[string]bool)
		for _, p := range pq.Jobs {
			ids[p.ID] = true
		}
		failed := 0
		for _, j := range s.jobs {
			if j.state == StateFailed {
				failed++
			}
		}
		if len(ids) == len(pq.Jobs) && s.queue.Len()+failed != len(pq.Jobs) {
			t.Errorf("%d entries on disk became %d queued + %d failed", len(pq.Jobs), s.queue.Len(), failed)
		}
		checkQueue(t, s)
	})
}

// TestLoadRevalidatesQueue: a queue persisted on a larger pool (or damaged
// on disk) must not leave an infeasible job at the head of the strict
// head-of-line queue, where it would starve everything behind it. It loads
// as failed, with the reason in its status; the rest of the queue loads.
func TestLoadRevalidatesQueue(t *testing.T) {
	// Persisted on an 8-rank pool: a 6-rank job at the head, then three
	// 2-rank jobs, the first of which is then damaged on disk.
	var pq persistedQueue
	if err := json.Unmarshal(drainedQueueFile(t, 8, [2]int{6, 9}, [2]int{2, 5}, [2]int{2, 1}, [2]int{2, 1}), &pq); err != nil {
		t.Fatal(err)
	}
	pq.Jobs[1].Spec.App = "nope"
	// The head was evicted to custody before the drain: its snapshots are on
	// disk, and failing it at load must clear them like any terminal state.
	pq.Jobs[0].Preemptions = 1
	custody, err := checkpoint.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ns, err := custody.Namespace(pq.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	ns.Save(0, []byte("snapshot"))
	blob, err := json.Marshal(pq)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadQueue(t, blob, custody)
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(ns.Dir(), "proc-*.ckpt")); len(left) != 0 {
		t.Errorf("a preempted job that failed at load left its custody on disk: %v", left)
	}
	if st, _ := s.Status("job-0000"); st.State != StateFailed || !strings.Contains(st.Error, ErrInfeasible.Error()) {
		t.Errorf("6-rank job on a %d-rank pool loaded as %s (%q), want failed with ErrInfeasible", fuzzPool, st.State, st.Error)
	}
	if st, _ := s.Status("job-0001"); st.State != StateFailed || st.Error == "" {
		t.Errorf("job naming an unknown app loaded as %s (%q), want failed with a reason", st.State, st.Error)
	}
	if q := s.Queue(); len(q.Pending) != 2 || q.Pending[0].ID != "job-0002" || q.Pending[1].ID != "job-0003" {
		t.Errorf("pending after reload: %+v, want job-0002 then job-0003", q.Pending)
	}
	checkQueue(t, s)
}
