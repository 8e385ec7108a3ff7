package distnet

import (
	"testing"

	"specomp/internal/obs"
)

// TestNodeInstrumentsReaderRule: a node builds its registry only for the
// coordinator's pushes or /metrics, and its journal only for a Trace result,
// /journal or a JournalDir file. Every journal but a Trace one keeps a
// bounded tail in memory, however many events it records.
func TestNodeInstrumentsReaderRule(t *testing.T) {
	for _, c := range []struct {
		name              string
		trace             bool
		http, dir         string
		push              bool
		pushMS            int
		wantReg, wantJour bool
	}{
		{name: "nothing reads", pushMS: 500},
		{name: "push asked but disabled", push: true, pushMS: -1},
		{name: "push", push: true, pushMS: 500, wantReg: true},
		{name: "trace", trace: true, pushMS: 500, wantJour: true},
		{name: "journal dir", dir: "j", pushMS: 500, wantJour: true},
		{name: "http", http: "127.0.0.1:0", pushMS: 500, wantReg: true, wantJour: true},
		{name: "trace and dir", trace: true, dir: "j", pushMS: 500, wantJour: true},
		{name: "everything", trace: true, http: "127.0.0.1:0", dir: "j", push: true, pushMS: 50, wantReg: true, wantJour: true},
	} {
		cfg := NodeConfig{HTTPAddr: c.http, JournalDir: c.dir}
		wc := wireConfig{Spec: RunSpec{Trace: c.trace, ObsPushMS: c.pushMS}, ObsPush: c.push}
		reg, journal := nodeInstruments(cfg, wc)
		if (reg != nil) != c.wantReg || (journal != nil) != c.wantJour {
			t.Errorf("%s: registry %v journal %v, want %v %v", c.name, reg != nil, journal != nil, c.wantReg, c.wantJour)
			continue
		}
		const n = 3 * journalTail
		for i := 0; i < n; i++ {
			journal.Record(obs.Event{T: float64(i), Kind: obs.EvSend, Iter: i, Peer: 1})
		}
		switch {
		case journal == nil:
		case c.trace && journal.Len() != n:
			t.Errorf("%s: a Trace journal kept %d of %d events, want all of them", c.name, journal.Len(), n)
		case !c.trace && (journal.Len() > 2*journalTail || journal.Dropped() == 0):
			t.Errorf("%s: journal kept %d of %d events (%d dropped), want at most %d", c.name, journal.Len(), n, journal.Dropped(), 2*journalTail)
		}
	}
}
