package distnet

import (
	"reflect"
	"testing"
)

// configSeed is the FrameConfig body a coordinator sends rank of a run of
// spec, exactly as coord.go encodes it.
func configSeed(t testing.TB, spec RunSpec, rank int, rejoin bool) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	peers := make([]string, spec.Procs)
	for i := range peers {
		peers[i] = "127.0.0.1:40000"
	}
	wc := wireConfig{Rank: rank, Peers: peers, Spec: spec, ObsPush: true, Rejoin: rejoin}
	if rejoin {
		wc.Checkpoint = []byte("SPCK")
	}
	return encodeJSON(wc)
}

// smallApp reports whether building every rank of spec stays cheap: the
// global problem a rank derives is at most 1<<16 values.
func smallApp(s RunSpec) bool {
	const limit = 1 << 16
	switch s.App {
	case "heat":
		return s.Rows <= limit && s.Cols <= limit && s.Rows*s.Cols <= limit
	case "jacobi":
		return s.N <= limit && s.N*s.N <= limit
	case "pipeline":
		return s.Width <= limit && s.Procs*s.Width <= limit
	}
	return false
}

// FuzzConfigBlob feeds arbitrary bytes to the node's config decoder, which
// reads what the coordinator sends before anything is built from it. It
// must never panic; a config it accepts names a rank inside a peer list of
// Procs entries and a spec a second Normalize leaves unchanged, and when the
// problem is small every rank's app builds from it.
//
// Run with: go test -run '^$' -fuzz FuzzConfigBlob -fuzzminimizetime 1s ./internal/distnet
func FuzzConfigBlob(f *testing.F) {
	f.Add(configSeed(f, RunSpec{App: "heat", Procs: 4, Rows: 48, Cols: 32, MaxIter: 500, FW: 2}, 1, false))
	f.Add(configSeed(f, RunSpec{App: "jacobi", Procs: 4, N: 64, Tol: 1e-9, Wire: WireSpec{Delta: true}}, 3, false))
	f.Add(configSeed(f, RunSpec{App: "pipeline", Procs: 4, Placement: []int{2, 0, 3, 1}, Exact: true}, 0, false))
	f.Add(configSeed(f, RunSpec{App: "heat", Procs: 2, CheckpointEvery: 5, MaxCrashOverrun: 3}, 1, true))
	f.Add([]byte(`{"rank":0,"peers":["a"],"spec":{"app":"heat","procs":1}}`))
	f.Add([]byte(`{"rank":5,"peers":["a","b"],"spec":{"procs":2}}`))
	f.Add([]byte(`{"rank":0,"peers":[],"spec":{"procs":0}}`))
	f.Add([]byte(`{"rank":0,"peers":["a","b"],"spec":{"app":"pipeline","procs":2,"width":1000000000}}`))
	f.Add([]byte(`{"rank":`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		wc, err := decodeConfig(blob)
		if err != nil {
			return
		}
		p := wc.Spec.Procs
		if len(wc.Peers) != p || wc.Rank < 0 || wc.Rank >= p {
			t.Fatalf("accepted rank %d of %d with %d peers", wc.Rank, p, len(wc.Peers))
		}
		again := wc.Spec
		if err := again.Normalize(); err != nil {
			t.Fatalf("accepted spec fails a second Normalize: %v", err)
		}
		if !reflect.DeepEqual(again, wc.Spec) {
			t.Fatalf("a second Normalize changed the spec:\n%+v\n%+v", wc.Spec, again)
		}
		if !smallApp(wc.Spec) {
			return
		}
		for rank := 0; rank < p; rank++ {
			if _, err := BuildApp(wc.Spec, rank); err != nil {
				t.Fatalf("rank %d of an accepted spec does not build: %v", rank, err)
			}
		}
	})
}
