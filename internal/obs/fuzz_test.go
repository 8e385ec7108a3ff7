package obs

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzParseProm feeds arbitrary text to ParsePromFamilies, which decodes
// every metrics snapshot (FrameObs) a fleet coordinator merges. It must
// never panic, it must allocate in proportion to its input, and whatever it
// accepts must come back from WriteFamilies and a second parse as the same
// families — and write out to the same bytes again.
//
// Run with: go test -run '^$' -fuzz FuzzParseProm -fuzzminimizetime 1s ./internal/obs
func FuzzParseProm(f *testing.F) {
	reg := NewRegistry()
	for _, v := range adversarialValues {
		reg.Counter("specomp_msgs_total", "messages sent", L("proc", v)).Add(3)
	}
	reg.Gauge("specomp_depth", "", L("peer", "1")).Set(-0.5)
	h := reg.Histogram("specomp_latency_seconds", "delivery latency", []float64{0.001, 0.01}, L("proc", "0"))
	h.Observe(0.002)
	h.Observe(7)
	var dump bytes.Buffer
	if err := reg.WriteProm(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	for _, s := range []string{
		"",
		"# HELP x\n# TYPE x\nx_sum 1\n",
		"# HELP x  two  spaces\nx 1e300\nx{} -0\ny NaN\ny +Inf\n",
		"x_bucket{le=\"+Inf\"} 4\n# TYPE x histogram\nx_count 4\n",
		"a{b=\"\xff\\\"\",c=\"}{,=\"} 0x1p-3\n",
		"a{b=\"1\", c = \"2\"} 1\n",
		"a{b=\"1\"c=\"2\" , } 1\n\r\n#\n",
		"a{b=\"\\q\"} 1\n",
		"9a 1\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fams, err := ParsePromFamilies(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The scanner's 64 KB buffer, then a sample and its family per line.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+96<<10); grew > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFamilies(&out, fams); err != nil {
			t.Fatal(err)
		}
		again, err := ParsePromFamilies(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("WriteFamilies wrote what the parser refuses: %v\n%s", err, out.Bytes())
		}
		if !sameFamilies(fams, again) {
			t.Fatalf("families changed across a write and a parse:\n first %+v\nsecond %+v\nwritten:\n%s", fams, again, out.Bytes())
		}
		var twice bytes.Buffer
		if err := WriteFamilies(&twice, again); err != nil || !bytes.Equal(out.Bytes(), twice.Bytes()) {
			t.Fatalf("second write differs (%v):\n%s\nthen\n%s", err, out.Bytes(), twice.Bytes())
		}
	})
}

// sameFamilies compares what a family means: names, headers, and each
// sample's name, decoded labels and value (NaN equal to NaN) — not the
// spacing or escaping of the input, which a write puts in canonical form.
func sameFamilies(a, b []PromFamily) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for j := range fa.Samples {
			sa, sb := fa.Samples[j], fb.Samples[j]
			if sa.Name != sb.Name || len(sa.LabelPairs) != len(sb.LabelPairs) ||
				!(sa.Value == sb.Value || sa.Value != sa.Value && sb.Value != sb.Value) {
				return false
			}
			for k := range sa.LabelPairs {
				if sa.LabelPairs[k] != sb.LabelPairs[k] {
					return false
				}
			}
		}
	}
	return true
}
