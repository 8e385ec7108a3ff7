package sched

import (
	"context"
	"net"
	"time"

	"specomp/internal/obs"
)

// Serve runs the scheduler as a service on ln until ctx is done: New(cfg)
// (which resumes a queue a drained predecessor left in cfg.StateDir), the
// API of Handler on the shared obs endpoint (so the service has pprof and
// the header timeout every other long-lived process has), and on ctx.Done
// a drain — submissions get 503 while running jobs evict to custody for
// up to drainTimeout and the queue is persisted — before the listener
// closes. It returns Drain's error: nil means everything the service held
// is in cfg.Custody and cfg.StateDir for a successor to resume.
func Serve(ctx context.Context, ln net.Listener, cfg Config, drainTimeout time.Duration) error {
	s, err := New(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	srv := obs.Serve(ln, s.Handler())
	defer srv.Close()
	defer s.Close()
	<-ctx.Done()
	s.logf("shutdown requested: draining (up to %v)", drainTimeout)
	return s.Drain(drainTimeout)
}
