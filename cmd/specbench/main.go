// Command specbench regenerates every table and figure of the paper's
// evaluation. By default it runs the full paper-scale configuration
// (N=1000 particles, 16 simulated workstations); -quick switches to the
// scaled-down test configuration.
//
// Usage:
//
//	specbench [-exp all|fig2|fig4|fig5|fig6|fig8|table2|table3|fig9] [-quick]
//	          [-n particles] [-iters n] [-procs p] [-theta θ]
//	          [-csv dir] [-metrics file]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"specomp/internal/experiments"
	"specomp/internal/obs"
)

func main() {
	var (
		exp = flag.String("exp", "all",
			"experiment id: all, ext, or any of fig2, fig4, fig5, fig6, fig8, table2, table3, fig9, ext-fw, ext-bw, ext-load, ext-topo, ext-faults, ext-chaos, ext-dag")
		quick   = flag.Bool("quick", false, "use the scaled-down configuration")
		fault   = flag.Bool("faults", false, "shorthand for -exp ext-faults: run under an unreliable network")
		crash   = flag.Bool("crash", false, "shorthand for -exp ext-chaos: the crash/restart chaos soak")
		dag     = flag.Bool("dag", false, "shorthand for -exp ext-dag: task-DAG and pipeline experiments")
		n       = flag.Int("n", 0, "override particle count")
		iters   = flag.Int("iters", 0, "override iteration count")
		procs   = flag.Int("procs", 0, "override machine-set size")
		theta   = flag.Float64("theta", 0, "override speculation threshold θ")
		chart   = flag.Bool("chart", true, "render figure series as ASCII charts")
		csvDir  = flag.String("csv", "", "also write each experiment's series to <dir>/<id>.csv")
		metrics = flag.String("metrics", "", "instrument all runs and write a Prometheus text dump to this file")
	)
	flag.Parse()

	cfg := experiments.DefaultNBody()
	if *quick {
		cfg = experiments.QuickNBody()
	}
	// One registry shared by every requested experiment keeps the dump a
	// single valid exposition; per-experiment deltas go into each report.
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *iters > 0 {
		cfg.Iters = *iters
	}
	if *procs > 0 {
		cfg.MaxProcs = *procs
	}
	if *theta > 0 {
		cfg.Theta = *theta
	}

	ids := strings.Split(*exp, ",")
	switch *exp {
	case "all":
		ids = []string{"fig2", "fig4", "fig5", "fig6", "fig8", "table2", "table3", "fig9"}
	case "ext":
		ids = []string{"ext-fw", "ext-bw", "ext-load", "ext-topo", "ext-apps", "ext-faults", "ext-dag"}
	}
	if *fault {
		ids = []string{"ext-faults"}
	}
	if *crash {
		ids = []string{"ext-chaos"}
	}
	if *dag {
		ids = []string{"ext-dag"}
	}
	failed := false
	for _, id := range ids {
		var before map[string]float64
		if reg != nil {
			before = reg.Totals()
		}
		rep, err := run(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "specbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if reg != nil {
			rep.Metrics = obs.DeltaLines(before, reg.Totals())
		}
		if len(rep.Failures) > 0 {
			failed = true
		}
		fmt.Println(rep.String())
		if *chart && len(rep.Series) > 0 {
			fmt.Println(rep.Chart(72, 18))
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "specbench: %v\n", err)
				os.Exit(1)
			}
			path := fmt.Sprintf("%s/%s.csv", *csvDir, rep.ID)
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "specbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if reg != nil {
		if err := writeMetrics(*metrics, reg); err != nil {
			fmt.Fprintf(os.Stderr, "specbench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "specbench: one or more experiments reported failures")
		os.Exit(1)
	}
}

// writeMetrics dumps the registry in Prometheus text exposition format and
// re-parses the written file as a self-check, so a broken exposition fails
// the run instead of silently producing an unusable dump.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteProm(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	samples, err := obs.ParseProm(rf)
	if err != nil {
		return fmt.Errorf("metrics self-check: %s does not parse: %w", path, err)
	}
	if len(samples) == 0 {
		return fmt.Errorf("metrics self-check: %s is empty", path)
	}
	return nil
}

func run(id string, cfg experiments.NBodyConfig) (experiments.Report, error) {
	switch id {
	case "fig2":
		return experiments.Figure2()
	case "fig4":
		return experiments.Figure4()
	case "fig5":
		return experiments.Figure5(), nil
	case "fig6":
		return experiments.Figure6(), nil
	case "fig8":
		return experiments.Figure8(cfg)
	case "table2":
		rep, _, err := experiments.Table2(cfg)
		return rep, err
	case "table3":
		rep, _, err := experiments.Table3(cfg)
		return rep, err
	case "fig9":
		return experiments.Figure9(cfg)
	case "ext-fw":
		return experiments.ExtForwardWindows(cfg)
	case "ext-bw":
		return experiments.ExtPredictors(cfg)
	case "ext-load":
		return experiments.ExtLoad(cfg)
	case "ext-topo":
		return experiments.ExtTopology(cfg)
	case "ext-apps":
		return experiments.ExtApps(cfg)
	case "ext-faults":
		return experiments.ExtFaults(cfg)
	case "ext-chaos":
		return experiments.ExtChaos(cfg)
	case "ext-dag":
		return experiments.ExtDAG(cfg)
	default:
		return experiments.Report{}, fmt.Errorf("unknown experiment %q", id)
	}
}
