// Command gpawsim replays the paper's evaluation — its tables, figures
// and ablations — on the calibrated Blue Gene/P model (internal/bgpsim).
// It measures nothing on this host: the live runtime is measured by
// `bash benchmark/run.sh` and asserted by the package tests.
//
// Usage:
//
//	gpawsim -experiment all
//	gpawsim -experiment fig5a,fig6 -quick
//
// Experiments: table1, fig2, fig5a (no batching), fig5b (batch 8), fig6,
// fig7, headline, ablations, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"comma-separated list: table1, fig2, fig5a, fig5b, fig6, fig7, headline, ablations, all")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast run")
	flag.Parse()

	opts := bench.Options{Quick: *quick}
	drivers := map[string]func() []*bench.Experiment{
		"table1":   func() []*bench.Experiment { return []*bench.Experiment{bench.Table1()} },
		"fig2":     func() []*bench.Experiment { return []*bench.Experiment{bench.Figure2(opts)} },
		"fig5a":    func() []*bench.Experiment { return []*bench.Experiment{bench.Figure5(false, opts)} },
		"fig5b":    func() []*bench.Experiment { return []*bench.Experiment{bench.Figure5(true, opts)} },
		"fig6":     func() []*bench.Experiment { return []*bench.Experiment{bench.Figure6(opts)} },
		"fig7":     func() []*bench.Experiment { return []*bench.Experiment{bench.Figure7(opts)} },
		"headline": func() []*bench.Experiment { return []*bench.Experiment{bench.Headline(opts)} },
		"ablations": func() []*bench.Experiment {
			return []*bench.Experiment{
				bench.AblationLatencyHiding(opts),
				bench.AblationBatchSweep(opts),
				bench.AblationBatchRamp(opts),
				bench.AblationPartitionControl(opts),
				bench.AblationThreadMode(opts),
				bench.AblationMeshVsTorus(opts),
				bench.AblationElementSize(opts),
				bench.AblationMasterOnlySync(opts),
			}
		},
	}
	order := []string{"table1", "fig2", "fig5a", "fig5b", "fig6", "fig7", "headline", "ablations"}

	var selected []string
	if *experiment == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			name = strings.TrimSpace(name)
			if _, ok := drivers[name]; !ok {
				fmt.Fprintf(os.Stderr, "gpawsim: unknown experiment %q (have %s, all)\n",
					name, strings.Join(order, ", "))
				flag.Usage()
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		for _, e := range drivers[name]() {
			e.Fprint(os.Stdout)
		}
	}
}
