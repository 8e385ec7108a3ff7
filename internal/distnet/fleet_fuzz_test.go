package distnet

import (
	"bytes"
	"testing"

	"specomp/internal/obs"
)

// FuzzFleetUpdate feeds arbitrary bytes to FleetObs.Update, the decoder of
// every metrics snapshot (FrameObs) a node pushes, as the pushes of three
// ranks beside a good one. Whatever Update accepts, Families, WriteProm,
// Totals, Status and SelfCheck must not panic, the merged exposition must
// re-parse to the same number of samples, and no sample may carry a label
// name twice.
//
// Run with: go test -run '^$' -fuzz FuzzFleetUpdate -fuzzminimizetime 1s ./internal/distnet
func FuzzFleetUpdate(f *testing.F) {
	reg := obs.NewRegistry()
	w := newWireObs(reg, 0, 2)
	w.noteFlush(flushRecv)
	w.noteBatch(2)
	w.link(1).observeLatency(3e-4)
	var good bytes.Buffer
	if err := reg.WriteProm(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	for _, s := range []string{
		"m{node=\"0\",job=\"x\"} 1\n", // a rank posing as rank 0
		"m{a=\"1\",a=\"2\"} 1\n",
		"# TYPE m counter\nm 1\nm{peer=\"1\"} 2\nm_bucket{le=\"1\"} 3\n",
		"# HELP specomp_fleet_nodes forged\nspecomp_fleet_nodes 9\nspecomp_fleet_pushes_total{x=\"\\n\"} 1\n",
		"m 1\nm 1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fleet := NewFleetObs("fuzz")
		if err := fleet.Update(0, good.Bytes()); err != nil {
			t.Fatal(err)
		}
		half := len(data) / 2
		fleet.Update(1, data)
		fleet.Update(2, data[:half])
		fleet.Update(3, data[half:])
		fleet.Update(2, data)

		fams, err := fleet.Families()
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		for _, fam := range fams {
			for _, s := range fam.Samples {
				seen := make(map[string]bool, len(s.LabelPairs))
				for _, l := range s.LabelPairs {
					if seen[l.Key] {
						t.Fatalf("%s repeats label %q: %v", s.Name, l.Key, s.LabelPairs)
					}
					seen[l.Key] = true
				}
			}
			samples += len(fam.Samples)
		}
		var out bytes.Buffer
		if err := fleet.WriteProm(&out); err != nil {
			t.Fatal(err)
		}
		again, err := obs.ParsePromFamilies(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("merged exposition does not re-parse: %v\n%s", err, out.Bytes())
		}
		for _, fam := range again {
			samples -= len(fam.Samples)
		}
		if samples != 0 {
			t.Fatalf("re-parse changed the sample count by %d\n%s", -samples, out.Bytes())
		}
		fleet.Totals()
		fleet.Status()
		fleet.SelfCheck(4)
	})
}
