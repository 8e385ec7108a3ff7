package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: specomp/internal/distnet
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFrameEncode       	 2959669	       387.7 ns/op	5439.37 MB/s	       0 B/op	       0 allocs/op
BenchmarkLoopbackRoundTrip 	  111760	      9847 ns/op	       0 B/op	       0 allocs/op
BenchmarkLinkThroughput/frames         	 1211701	      1093 ns/op	 117.13 MB/s	       0 B/op	       0 allocs/op
BenchmarkCheckpointEncode/heat48x32-P2-FW2 	   51994	     21305 ns/op	2658.35 MB/s	   57344 B/op	       1 allocs/op
BenchmarkCoordCustody/frame 	   22000	     51000 ns/op	         0.017 commits/frame	   40000 B/op	       9 allocs/op
PASS
ok  	specomp/internal/distnet	10.049s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU == "" {
		t.Errorf("environment header lost: %+v", rep)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	// The MB/s column of a SetBytes benchmark does not hide its memory
	// columns; a custom metric column still does (timing-only series).
	if ce, _ := rep.Find("specomp/internal/distnet", "BenchmarkCheckpointEncode/heat48x32-P2-FW2"); ce.BytesPerOp != 57344 || ce.AllocsPerOp != 1 {
		t.Errorf("memory columns behind MB/s lost: %+v", ce)
	}
	if cc, _ := rep.Find("specomp/internal/distnet", "BenchmarkCoordCustody/frame"); cc.NsPerOp != 51000 || cc.AllocsPerOp != 0 {
		t.Errorf("series with a custom column parsed wrong: %+v", cc)
	}
	enc, ok := rep.Find("specomp/internal/distnet", "BenchmarkFrameEncode")
	if !ok {
		t.Fatal("BenchmarkFrameEncode not found")
	}
	if enc.Iters != 2959669 || enc.NsPerOp != 387.7 || enc.AllocsPerOp != 0 {
		t.Errorf("BenchmarkFrameEncode parsed wrong: %+v", enc)
	}
	if _, ok := rep.Find("specomp/internal/distnet", "BenchmarkLinkThroughput/frames"); !ok {
		t.Error("sub-benchmark name not found")
	}
}

func TestMergeReplacesAndAppends(t *testing.T) {
	rep := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 2},
		{Pkg: "p", Name: "BenchmarkB", NsPerOp: 200},
	}}
	rep.Merge(
		Result{Pkg: "p", Name: "BenchmarkA", NsPerOp: 90, AllocsPerOp: 1},
		Result{Pkg: "q", Name: "SoakMsgRate/P64", NsPerOp: 5},
	)
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d series, want 3", len(rep.Benchmarks))
	}
	a, _ := rep.Find("p", "BenchmarkA")
	if a.NsPerOp != 90 || a.AllocsPerOp != 1 {
		t.Errorf("BenchmarkA not replaced: %+v", a)
	}
	if b, _ := rep.Find("p", "BenchmarkB"); b.NsPerOp != 200 {
		t.Errorf("BenchmarkB clobbered: %+v", b)
	}
	if _, ok := rep.Find("q", "SoakMsgRate/P64"); !ok {
		t.Error("new series not appended")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(rep.Benchmarks) || got.CPU != rep.CPU {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}

func TestCompareAllocs(t *testing.T) {
	base := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkA", AllocsPerOp: 0},
		{Pkg: "p", Name: "BenchmarkB", AllocsPerOp: 6},
	}}
	cur := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkA", AllocsPerOp: 2},   // regressed
		{Pkg: "p", Name: "BenchmarkB", AllocsPerOp: 3},   // improved
		{Pkg: "p", Name: "BenchmarkNew", AllocsPerOp: 9}, // no baseline: passes
	}}
	regs := cur.CompareAllocs(&base)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkA") {
		t.Errorf("regressions = %q, want exactly BenchmarkA", regs)
	}
	if regs := base.CompareAllocs(&base); regs != nil {
		t.Errorf("self-comparison flagged %q", regs)
	}
}
