// Command bench is the repository's benchmark: wall-clock time-to-solution
// of the speculative engine on the socket runtime, on six workloads, with a
// per-layer budget and a traced run underneath. See README.md beside this
// file for what each workload is for and how to read the numbers.
//
//	go run ./bench                          every workload, untraced then traced pass
//	go run ./bench -workload lat-spec -trace 0 -seconds 12 -seed 3
//	go run ./bench -noise                   the untraced set twice, compared against the bounds
//
// With exactly one workload and one pass (-trace 0 or -trace 1) the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; otherwise standard output carries the full
// summary document. The table goes to standard error either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

func main() {
	if coord := os.Getenv(nodeEnv); coord != "" {
		os.Exit(runNode(coord))
	}
	os.Exit(run(os.Args[1:]))
}

// outDir holds traces and scratch directories; the root .gitignore names it.
const outDir = "bench/out"

// summary is the full report of one invocation.
type summary struct {
	Env      environment   `json:"env"`
	EndToEnd []*passResult `json:"end_to_end,omitempty"`
	PerLayer []*passResult `json:"per_layer,omitempty"`
	Noise    []noiseRow    `json:"noise,omitempty"`
	Claim    *string       `json:"claim"` // this harness measures; it claims nothing
}

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Short      bool    `json:"short"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all six)")
		trace   = fs.String("trace", "both", "0: untraced end-to-end pass, 1: traced per-layer pass, both: one after the other")
		jsonOut = fs.String("json", "", "also write the summary document to this file")
		noise   = fs.Bool("noise", false, "run the untraced set twice and fail if any end-to-end metric differs by more than its bound")
		opts    = options{outDir: outDir}
	)
	fs.Int64Var(&opts.seed, "seed", 1, "seeds the jacobi system, the N-body initial conditions and every FaultSeed")
	fs.Float64Var(&opts.seconds, "seconds", 15, "measuring budget per workload per pass")
	fs.IntVar(&opts.reps, "reps", 0, "measure exactly this many units per workload instead of a time budget")
	fs.BoolVar(&opts.short, "short", false, "toy sizes: a smoke run through every code path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if opts.short && opts.reps == 0 {
		opts.reps = 2
	}
	selected, err := selectWorkloads(workloads(opts.short), *names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// Ctrl-C or a kill must not leave child node processes or custody
	// directories behind: children die with this process (see runNode), the
	// scratch directory is removed here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(filepath.Join(opts.outDir, "tmp"))
		os.Exit(130)
	}()
	defer os.RemoveAll(filepath.Join(opts.outDir, "tmp"))

	sum := summary{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: opts.seed, Seconds: opts.seconds, Short: opts.short,
	}}
	ok := true
	pass := func(traced bool) ([]*passResult, error) {
		var out []*passResult
		for _, w := range selected {
			fn := runUntraced
			if traced {
				fn = runTraced
			}
			res, err := fn(w, opts)
			if err != nil {
				return out, fmt.Errorf("%s: %w", w.name, err)
			}
			if res.Failed > 0 || res.Samples == 0 {
				ok = false
			}
			printPass(res)
			out = append(out, res)
		}
		return out, nil
	}

	switch {
	case *noise:
		var first []*passResult
		if first, err = pass(false); err == nil {
			if sum.EndToEnd, err = pass(false); err == nil {
				sum.Noise = compareSets(first, sum.EndToEnd)
				ok = printNoise(sum.Noise) && ok
			}
		}
	default:
		if *trace != "1" {
			sum.EndToEnd, err = pass(false)
		}
		if err == nil && *trace != "0" {
			if sum.PerLayer, err = pass(true); err == nil {
				err = writeTraces(opts.outDir, sum.PerLayer)
			}
		}
	}
	if err == nil && *jsonOut != "" {
		err = writeJSON(*jsonOut, sum)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	single := len(selected) == 1 && *trace != "both" && !*noise
	switch {
	case single && *trace == "0":
		fmt.Println(string(resultLine(sum.EndToEnd[0])))
	case single:
		fmt.Println(string(resultLine(sum.PerLayer[0])))
	default:
		doc, _ := json.MarshalIndent(sum, "", "  ") // plain data: cannot fail
		fmt.Println(string(doc))
	}
	if !ok {
		return 1
	}
	return 0
}

func selectWorkloads(all []workload, names string) ([]workload, error) {
	if names == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// commit names the source the numbers belong to; a checkout that is not a git
// repository (the benchmark driver's) reads "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultLine is the one-object result the benchmark driver reads: exactly the
// keys correct, attempted, failed and metrics.
func resultLine(res *passResult) []byte {
	line, _ := json.Marshal(struct { // plain data: cannot fail
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Samples > 0, res.Attempted, res.Failed, res.Metrics})
	return line
}

// printPass writes one workload's metrics as a table on standard error.
func printPass(res *passResult) {
	kind := "end-to-end (untraced)"
	if res.Traced {
		kind = "per-layer (traced pass)"
	}
	fmt.Fprintf(os.Stderr, "\n%s  %s  samples=%d attempted=%d failed=%d\n", res.Name, kind, res.Samples, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "  FAILED", f)
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	for _, name := range sortedNames(res.Metrics) {
		v := res.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", name, v.Value, v.Unit, res.Samples)
	}
	if res.Tail != nil {
		fmt.Fprintf(tw, "  tts_p%g_s\t%.6g\ts\tn=%d\n", res.Tail.Percentile, res.Tail.Seconds, res.Samples)
	}
	tw.Flush()
}

// noiseRow compares one end-to-end metric of one workload between two sets of
// runs of the same commit.
type noiseRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"` // (second − first) ÷ first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func compareSets(first, second []*passResult) []noiseRow {
	var rows []noiseRow
	for i, a := range first {
		b := second[i]
		for _, def := range endToEnd {
			x, y := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
			diff := ratio(y-x, x)
			rows = append(rows, noiseRow{
				Workload: a.Name, Metric: def.Name, First: x, Second: y, RelDiff: diff, Bound: def.Bound,
				Within: diff <= def.Bound && diff >= -def.Bound,
			})
		}
	}
	return rows
}

func printNoise(rows []noiseRow) bool {
	ok := true
	fmt.Fprintln(os.Stderr, "\nnoise: two sets of untraced runs of one commit")
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	for _, r := range rows {
		verdict := "ok"
		if !r.Within {
			verdict, ok = "OUTSIDE BOUND", false
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%+.2f%%\tbound %.0f%%\t%s\n",
			r.Workload, r.Metric, r.First, r.Second, 100*r.RelDiff, 100*r.Bound, verdict)
	}
	tw.Flush()
	return ok
}

// traceFile is what the traced pass leaves in bench/out for one workload.
type traceFile struct {
	Workload string             `json:"workload"`
	Metrics  map[string]value   `json:"metrics"`
	SelfTime map[string]float64 `json:"self_s_by_span"`
	Spans    []span             `json:"spans"`
}

func writeTraces(dir string, results []*passResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		tf := traceFile{Workload: res.Name, Metrics: res.Metrics, SelfTime: selfByName(res.spans), Spans: res.spans}
		if err := writeJSON(filepath.Join(dir, "trace-"+res.Name+".json"), tf); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// cpuSeconds is the CPU time (user + system) this process and its reaped
// children have used so far.
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // the figure is informational; a platform without it reads low
		}
		total += float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return total
}

// peakRSSMB is this process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
