package sched

// The service API. JSON over HTTP on one mux:
//
//	POST   /jobs       submit a JobSpec     → JobStatus (503 draining,
//	                                          429 quota, 400 invalid)
//	GET    /jobs       list all jobs        → []JobStatus
//	GET    /jobs/{id}  one job's status     → JobStatus (404 unknown)
//	DELETE /jobs/{id}  cancel               → JobStatus (404 unknown,
//	                                          409 already finished)
//	GET    /queue      queue + occupancy    → QueueStatus
//	GET    /metrics    merged Prometheus exposition: scheduler series +
//	                   every job's aggregated fleet (job-labelled)
//	GET    /fleet      scheduler + per-job fleet JSON; ?job= filters to
//	                   one job's fleet view
//
// Everything renders from snapshot copies; no handler holds scheduler
// state across a write.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"specomp/internal/distnet"
	"specomp/internal/obs"
)

// Handler serves the scheduler API.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /queue", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Queue())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	return mux
}

// maxSubmitBytes bounds a submission body: a JobSpec is a few hundred
// bytes, and Placement []int must not let one POST allocate without limit.
const maxSubmitBytes = 1 << 20

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: fmt.Sprintf("decoding job spec: %v", err)})
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleMetrics serves ONE exposition for the whole service: the
// scheduler's own series merged family-wise with every job's aggregated
// fleet. Jobs never collide — each fleet's samples carry that job's id in
// their job label — so the union is a well-formed exposition with one
// family per metric name.
func (s *Scheduler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	lag := 0.0
	for _, j := range s.jobs {
		if j.run != nil {
			lag = max(lag, j.run.Coordinator().Stats().CustodyLagSec)
		}
	}
	s.mu.Unlock()
	s.met.custodyLag.Set(lag)
	var buf bytes.Buffer
	if err := s.reg.WriteProm(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fams, err := obs.ParsePromFamilies(bytes.NewReader(buf.Bytes()))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, jf := range s.jobFleets("") {
		jfams, err := jf.fleet.Families()
		if err != nil {
			http.Error(w, fmt.Sprintf("job %s: %v", jf.id, err), http.StatusInternalServerError)
			return
		}
		fams = append(fams, jfams...)
	}
	var out bytes.Buffer
	if err := obs.WriteFamilies(&out, obs.MergeFamilies(fams)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(out.Bytes())
}

// SchedFleetStatus is the /fleet JSON view: scheduler occupancy plus each
// job's fleet aggregation state.
type SchedFleetStatus struct {
	Queue QueueStatus      `json:"queue"`
	Jobs  []JobFleetStatus `json:"jobs"`
}

// JobFleetStatus is one job's slice of the /fleet view.
type JobFleetStatus struct {
	ID    string              `json:"id"`
	State JobState            `json:"state"`
	Fleet distnet.FleetStatus `json:"fleet"`
}

func (s *Scheduler) handleFleet(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("job")
	fleets := s.jobFleets(filter)
	if filter != "" && len(fleets) == 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no fleet for job %q", filter)})
		return
	}
	st := SchedFleetStatus{Queue: s.Queue(), Jobs: []JobFleetStatus{}}
	for _, jf := range fleets {
		st.Jobs = append(st.Jobs, JobFleetStatus{ID: jf.id, State: jf.state, Fleet: jf.fleet.Status()})
	}
	writeJSON(w, http.StatusOK, st)
}

// jobFleet pairs a job id with its fleet aggregator snapshot reference.
type jobFleet struct {
	id    string
	state JobState
	fleet *distnet.FleetObs
}

// jobFleets returns the fleets of jobs that have one (submission order),
// optionally filtered to a single job id.
func (s *Scheduler) jobFleets(filter string) []jobFleet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []jobFleet
	for _, id := range s.order {
		j := s.jobs[id]
		if j.fleet == nil || (filter != "" && id != filter) {
			continue
		}
		out = append(out, jobFleet{id: id, state: j.state, fleet: j.fleet})
	}
	return out
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// writeError maps scheduler sentinels to HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrQuota):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrJobFinished):
		code = http.StatusConflict
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}
