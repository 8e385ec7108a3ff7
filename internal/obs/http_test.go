package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

func scrape(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestServerServesRunAndProcessRoutes(t *testing.T) {
	reg := NewRegistry()
	jr := NewJournal()
	srv, err := Listen("127.0.0.1:0", Handler(reg, jr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The endpoint serves what the registry and journal hold when scraped,
	// not what they held when it was built.
	reg.Counter("specomp_test_total", "a counter", L("rank", "0")).Add(3)
	reg.Counter("specomp_test_total", "a counter", L("rank", "1")).Add(4)
	jr.Record(Event{T: 0.5, Proc: 1, Kind: EvSpecMade, Iter: 2, Peer: 0})

	base := "http://" + srv.Addr()
	text := string(scrape(t, base+"/metrics"))
	fams, err := ParsePromFamilies(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text exposition: %v\n%s", err, text)
	}
	if total := Totals(fams)["specomp_test_total"]; total != 7 {
		t.Errorf("/metrics specomp_test_total sums to %g, want 7\n%s", total, text)
	}

	// expvar is live JSON and includes the registry totals.
	var vars map[string]any
	if err := json.Unmarshal(scrape(t, base+"/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["specomp"]; !ok {
		t.Error("/debug/vars missing the specomp map")
	}

	// The journal streams as JSONL.
	events, err := ReadJSONL(strings.NewReader(string(scrape(t, base+"/journal"))))
	if err != nil {
		t.Fatalf("/journal does not parse: %v", err)
	}
	if len(events) != 1 || events[0].Kind != EvSpecMade {
		t.Errorf("/journal = %+v, want the one recorded event", events)
	}

	// pprof answers (index page).
	if body := scrape(t, base+"/debug/pprof/"); !strings.Contains(string(body), "profile") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}

// TestServeMountsCallerRoutes: a caller that holds its own listener and
// routes (the scheduler API, the fleet endpoint) gets them served beside the
// process-level ones, and Close releases the listener.
func TestServeMountsCallerRoutes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "mine") })
	srv := Serve(ln, mux)
	base := "http://" + srv.Addr()
	if got := string(scrape(t, base+"/jobs")); got != "mine" {
		t.Errorf("caller's route answered %q", got)
	}
	if body := scrape(t, base+"/debug/pprof/"); !strings.Contains(string(body), "profile") {
		t.Error("/debug/pprof/ missing beside the caller's routes")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/jobs"); err == nil {
		t.Error("endpoint still answers after Close")
	}
}
