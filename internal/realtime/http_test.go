package realtime

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/obs"
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

func TestObsEndpointServesMetricsAndJournal(t *testing.T) {
	reg := obs.NewRegistry()
	jr := obs.NewJournal()
	srv, err := obs.Listen("127.0.0.1:0", obs.Handler(reg, jr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A run populates the registry the endpoint is already serving.
	results, err := Run(Config{Procs: 3, MaxIter: 15, FW: 1, Metrics: reg, Journal: jr},
		func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs, threshold: 1e-6} })
	if err != nil {
		t.Fatal(err)
	}
	made := 0
	for _, r := range results {
		made += r.Stats.SpecsMade
	}
	if made == 0 {
		t.Fatal("no speculation — nothing to observe")
	}

	base := "http://" + srv.Addr()
	text := string(scrape(t, base+"/metrics"))
	fams, err := obs.ParsePromFamilies(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text exposition: %v\n%s", err, text)
	}
	got := obs.Totals(fams)
	// The acceptance schema: specs made/checked/bad, repairs, overruns, and
	// retransmissions must all be present (retransmissions at 0 on channels).
	for _, name := range []string{
		core.MetricSpecsMade, core.MetricSpecsCheck, core.MetricSpecsBad,
		core.MetricRepairs, core.MetricOverruns, cluster.MetricRetransmits,
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("/metrics missing family %s", name)
		}
	}
	if int(got[core.MetricSpecsMade]) != made {
		t.Errorf("/metrics specs_made = %g, want %d", got[core.MetricSpecsMade], made)
	}
	if got[cluster.MetricRetransmits] != 0 {
		t.Errorf("channel transport reported %g retransmissions", got[cluster.MetricRetransmits])
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
	events, err := obs.ReadJSONL(strings.NewReader(string(scrape(t, base+"/journal"))))
	if err != nil {
		t.Fatalf("/journal does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Error("/journal is empty after an instrumented run")
	}

	// pprof answers (index page).
	if body := scrape(t, base+"/debug/pprof/"); !strings.Contains(string(body), "profile") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}
