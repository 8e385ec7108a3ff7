package distnet

// Node supervision: keep a node process alive across crashes. The
// supervisor owns one child process slot; when the child dies it respawns
// it with a bumped incarnation epoch and capped exponential backoff, and
// gives up with ErrRespawnBudget once the respawn budget is spent. The
// epoch is the thread connecting supervision to the runtime's rejoin path:
// a respawned child says hello with epoch > 0, which is what lets it
// reclaim its old rank (coord.go) and replace its stale peer links
// (node.go).
//
//	start(0) ──exit 0──▶ done (nil)
//	   │
//	   └─exit != 0──▶ backoff ──▶ start(epoch+1) ──▶ …
//	                     │
//	                     └─respawns == MaxRespawns ⇒ done (ErrRespawnBudget)
//
// Stop short-circuits the machine: the current child is killed and its
// exit is treated as deliberate, not a crash.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"
)

// ErrRespawnBudget reports that a supervised node kept dying until its
// respawn budget ran out.
var ErrRespawnBudget = errors.New("distnet: respawn budget exhausted")

// Respawn backoff bounds (see SuperviseConfig.MaxRespawns).
const (
	backoffMin = 100 * time.Millisecond
	backoffMax = 2 * time.Second
)

// SuperviseConfig parameterizes one supervised node slot.
type SuperviseConfig struct {
	// Start builds the child command for the given incarnation epoch (0 on
	// first launch). The supervisor calls cmd.Start/Wait itself. Required.
	Start func(epoch int) (*exec.Cmd, error)
	// MaxRespawns bounds how many times a crashed child is relaunched
	// (default 3). Respawn k waits 100 ms·2^(k-1), at most 2 s.
	MaxRespawns int
	// Logf, when non-nil, receives lifecycle lines.
	Logf func(format string, args ...any)
}

// Supervisor runs the supervision loop for one node slot.
type Supervisor struct {
	cfg SuperviseConfig

	mu       sync.Mutex
	cmd      *exec.Cmd
	epoch    int
	respawns int
	stopped  bool
	stop     chan struct{} // closed by the first Stop: cuts a backoff short

	done chan struct{}
	err  error // final outcome, valid after done closes
}

// Supervise launches the epoch-0 child and begins supervising it.
func Supervise(cfg SuperviseConfig) (*Supervisor, error) {
	if cfg.Start == nil {
		return nil, fmt.Errorf("distnet: SuperviseConfig.Start is required")
	}
	if cfg.MaxRespawns <= 0 {
		cfg.MaxRespawns = 3
	}
	s := &Supervisor{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	cmd, err := s.launch(0)
	if err != nil {
		return nil, err
	}
	s.cmd = cmd
	go s.loop()
	return s, nil
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Supervisor) launch(epoch int) (*exec.Cmd, error) {
	cmd, err := s.cfg.Start(epoch)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distnet: starting supervised child (epoch %d): %w", epoch, err)
	}
	return cmd, nil
}

// loop waits on the current child and respawns crashes until the child
// exits cleanly, Stop is called, or the budget runs out.
func (s *Supervisor) loop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		cmd := s.cmd
		s.mu.Unlock()
		waitErr := cmd.Wait()

		s.mu.Lock()
		if s.stopped {
			// Deliberate termination: the child's exit status (including the
			// kill signal Stop sent) is not a verdict on the node.
			s.mu.Unlock()
			return
		}
		if waitErr == nil {
			s.mu.Unlock()
			return // clean exit: the node finished its run
		}
		if s.respawns >= s.cfg.MaxRespawns {
			s.err = fmt.Errorf("distnet: node died %d times, last exit: %v: %w",
				s.respawns+1, waitErr, ErrRespawnBudget)
			s.mu.Unlock()
			return
		}
		s.respawns++
		s.epoch++
		epoch, respawns := s.epoch, s.respawns
		s.mu.Unlock()

		backoff := backoffMin << (respawns - 1)
		if backoff > backoffMax || backoff <= 0 {
			backoff = backoffMax
		}
		s.logf("supervised node died (%v); respawn %d/%d with epoch %d after %v",
			waitErr, respawns, s.cfg.MaxRespawns, epoch, backoff)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-s.stop:
			timer.Stop()
		}

		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		cmd, err := s.launch(epoch)
		if err != nil {
			s.err = err
			s.mu.Unlock()
			return
		}
		s.cmd = cmd
		s.mu.Unlock()
	}
}

// Kill SIGKILLs the current child — the fault-injection entry point. The
// supervision loop sees the death and respawns within the budget.
func (s *Supervisor) Kill() {
	s.mu.Lock()
	cmd := s.cmd
	s.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
}

// Stop terminates supervision: the current child is killed and no respawn
// follows. Wait still reports any failure latched before the stop.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	cmd := s.cmd
	s.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
}

// Wait blocks until supervision ends and returns the final outcome: nil
// after a clean child exit or a Stop, the launch error or budget-exhaustion
// error otherwise.
func (s *Supervisor) Wait() error {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Respawns reports how many times the child has been relaunched.
func (s *Supervisor) Respawns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.respawns
}

// Epoch reports the current child's incarnation epoch.
func (s *Supervisor) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// PrefixWriter tags every line written through it with a fixed prefix, so
// interleaved child outputs stay attributable ("[node 2] …"). Partial lines
// are buffered until their newline arrives; Flush emits a buffered tail.
// Safe for concurrent writers (stdout and stderr of one child share one).
type PrefixWriter struct {
	mu     sync.Mutex
	w      io.Writer
	prefix []byte
	buf    []byte
}

func NewPrefixWriter(w io.Writer, prefix string) *PrefixWriter {
	return &PrefixWriter{w: w, prefix: []byte(prefix)}
}

func (p *PrefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	for {
		i := bytes.IndexByte(p.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		line := p.buf[:i+1]
		if _, err := p.w.Write(p.prefix); err != nil {
			return len(b), err
		}
		if _, err := p.w.Write(line); err != nil {
			return len(b), err
		}
		p.buf = p.buf[i+1:]
	}
}

// Flush emits any buffered partial line (with a newline so the prefix of
// the next writer starts a fresh line).
func (p *PrefixWriter) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buf) == 0 {
		return nil
	}
	if _, err := p.w.Write(p.prefix); err != nil {
		return err
	}
	if _, err := p.w.Write(append(p.buf, '\n')); err != nil {
		return err
	}
	p.buf = nil
	return nil
}
