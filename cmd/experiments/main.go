// Command experiments runs the paper-reproduction experiment suite
// (E01–E15) and prints the paper-vs-measured tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments                    # run everything, full size
//	experiments -run E08,E09       # selected experiments
//	experiments -quick             # reduced sizes/trials (seconds)
//	experiments -format markdown   # markdown tables for EXPERIMENTS.md
//	experiments -trialworkers 8    # size of the Monte-Carlo trial pool
//
// Monte-Carlo sweeps run on the batched trial engine (internal/mcbatch):
// each trial derives a private PCG stream from (seed, trial index), so
// every table is bit-identical for any -trialworkers value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and selects the experiments; it returns the process
// exit code: 0 all ok, 1 any experiment failed or errored, 2 usage
// errors (unknown flag or experiment id).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		quick  = fs.Bool("quick", false, "reduced sizes and trial counts")
		seed   = fs.Uint64("seed", 1, "random seed")
		format = fs.String("format", "table", "output format: table, markdown, csv")
		trialW = fs.Int("trialworkers", 0, "trial-level worker pool size for Monte-Carlo sweeps (0 = GOMAXPROCS); results are identical for every value")
		list   = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%s  %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	var todo []experiments.Experiment
	if *runIDs == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return 2
			}
			todo = append(todo, e)
		}
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, TrialWorkers: *trialW}
	return execute(todo, cfg, *format, stdout, stderr)
}

// execute runs the selected experiments and renders their outcomes. A
// run error or an outcome with OK=false counts as a failure; any failure
// makes the exit code 1 so CI and scripts can gate on the suite.
func execute(todo []experiments.Experiment, cfg experiments.Config, format string, stdout, stderr io.Writer) int {
	failed := 0
	for _, e := range todo {
		fmt.Fprintf(stdout, "=== %s: %s ===\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "claim: %s\n\n", e.Claim)
		out, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		for _, t := range out.Tables {
			var err error
			switch format {
			case "markdown":
				if t.Title != "" {
					fmt.Fprintf(stdout, "**%s**\n\n", t.Title)
				}
				err = t.Markdown(stdout)
			case "csv":
				err = t.CSV(stdout)
			default:
				err = t.Render(stdout)
			}
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return 1
			}
			fmt.Fprintln(stdout)
		}
		for _, n := range out.Notes {
			fmt.Fprintf(stdout, "note: %s\n", n)
		}
		if out.OK {
			fmt.Fprintf(stdout, "result: OK — the paper's claim held\n\n")
		} else {
			fmt.Fprintf(stdout, "result: FAILED\n\n")
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "experiments: %d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
