// Package benchfmt reads, writes and merges the repo's machine-readable
// benchmark baseline (BENCH_core.json): parsed `go test -bench` output plus
// synthetic series recorded by the soak harness. cmd/benchjson and
// cmd/specsoak are thin shells around it.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark series: a parsed `go test -bench` line or a
// synthetic measurement recorded under the same schema.
type Result struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the whole baseline document.
type Report struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine skips the MB/s column b.SetBytes adds, so such a series keeps
// its B/op and allocs/op; any other column between ns/op and B/op (a custom
// b.ReportMetric) still ends the match, leaving the series timing-only.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// Parse reads `go test -bench -benchmem` output and returns the report of
// every benchmark line found (environment headers included).
func Parse(r io.Reader) (Report, error) {
	var rep Report
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{Pkg: pkg, Name: m[1]}
		res.Iters, _ = strconv.ParseInt(m[2], 10, 64)
		res.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			res.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			res.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	return rep, sc.Err()
}

// Load reads a saved report.
func Load(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("benchfmt: decoding %s: %w", path, err)
	}
	return rep, nil
}

// Save writes the report as indented JSON.
func (rep *Report) Save(path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Find returns the series with the given pkg and name.
func (rep *Report) Find(pkg, name string) (Result, bool) {
	for _, r := range rep.Benchmarks {
		if r.Pkg == pkg && r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Merge folds results into the report: a result replaces the existing series
// with its (pkg, name), otherwise it is appended. Series the results do not
// mention are kept, so partial runs (bench-core, the soak) update their own
// slices of the baseline without clobbering each other's.
func (rep *Report) Merge(results ...Result) {
	for _, r := range results {
		replaced := false
		for i := range rep.Benchmarks {
			if rep.Benchmarks[i].Pkg == r.Pkg && rep.Benchmarks[i].Name == r.Name {
				rep.Benchmarks[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
}

// CompareAllocs checks rep against a baseline report and returns one line
// per series whose allocs/op exceeds the baseline's — the regression class
// the wire-plane work pins (timing is machine-dependent; allocation counts
// are not). Series absent from the baseline pass.
func (rep *Report) CompareAllocs(base *Report) []string {
	var regressions []string
	for _, r := range rep.Benchmarks {
		b, ok := base.Find(r.Pkg, r.Name)
		if ok && r.AllocsPerOp > b.AllocsPerOp {
			regressions = append(regressions,
				fmt.Sprintf("%s %s: %d allocs/op, baseline %d", r.Pkg, r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return regressions
}
