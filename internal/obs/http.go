package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the one way a long-lived process in this repo serves HTTP: a
// listener, a server with a header timeout, and the process-level routes
//
//	/debug/vars   expvar JSON (a "specomp" map of registry totals once a
//	              Handler was built)
//	/debug/pprof  the standard net/http/pprof handlers
//
// in front of the caller's own handler, which gets every other path.
// Construct with Listen or Serve; Close releases the listener.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// expvarReg is the registry the "specomp" expvar reads from. expvar.Publish
// panics on duplicate names, so the Func is published once and indirects
// through this mutex-guarded pointer (the most recent Handler wins).
var (
	expvarMu   sync.Mutex
	expvarReg  *Registry
	expvarOnce sync.Once
)

func publishExpvar(reg *Registry) {
	expvarMu.Lock()
	expvarReg = reg
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("specomp", expvar.Func(func() any {
			expvarMu.Lock()
			defer expvarMu.Unlock()
			return expvarReg.Totals()
		}))
	})
}

// Handler serves one run's introspection: reg as Prometheus text exposition
// at /metrics and jr as JSONL at /journal. Either may be nil (an empty
// exposition, an empty stream).
func Handler(reg *Registry, jr *Journal) http.Handler {
	publishExpvar(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = jr.WriteJSONL(w)
	})
	return mux
}

// Listen binds addr ("host:port"; port 0 for an ephemeral port, then read
// Addr) and serves h on it.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, h), nil
}

// Serve serves h, behind the process-level routes, on a listener the caller
// already holds.
func Serve(ln net.Listener, h http.Handler) *Server {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
