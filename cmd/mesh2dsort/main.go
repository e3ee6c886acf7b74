// Command mesh2dsort runs one of the paper's mesh sorting algorithms on a
// chosen input and reports the step, swap, and comparison counts.
//
// Usage:
//
//	mesh2dsort -alg snake-a -side 16 -input random -seed 1
//	mesh2dsort -alg rm-rf -side 8 -input zero-column -show
//	mesh2dsort -alg snake-c -side 8 -trace
//
// Inputs: random (permutation), zero-column (Corollary 1 worst case),
// smallest-column (§1 adversarial permutation), sorted, reversed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		algName = flag.String("alg", "snake-a", "algorithm: rm-rf, rm-cf, snake-a, snake-b, snake-c, shearsort, rm-rf-nowrap")
		side    = flag.Int("side", 16, "mesh side length √N")
		seed    = flag.Uint64("seed", 1, "random seed")
		input   = flag.String("input", "random", "input: random, zero-column, smallest-column, sorted, reversed")
		show    = flag.Bool("show", false, "print the mesh before and after")
		doTrace = flag.Bool("trace", false, "trace the smallest element's path")
		maxStep = flag.Int("maxsteps", 0, "step cap (0 = automatic)")
		every   = flag.Int("every", 0, "print a mesh snapshot every k steps (0 = off)")
	)
	flag.Parse()
	if err := run(runConfig{
		alg: *algName, side: *side, seed: *seed, input: *input,
		show: *show, trace: *doTrace,
		maxSteps: *maxStep, every: *every,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "mesh2dsort:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flags.
type runConfig struct {
	alg, input  string
	side        int
	seed        uint64
	show, trace bool
	maxSteps    int
	every       int
}

func run(cfg runConfig) error {
	alg, err := core.ByName(cfg.alg)
	if err != nil {
		return err
	}
	if err := alg.CheckMesh(cfg.side, cfg.side); err != nil {
		return err
	}
	g, err := buildInput(cfg.input, cfg.side, cfg.seed, alg.Order())
	if err != nil {
		return err
	}
	if cfg.show {
		fmt.Printf("input (%d×%d):\n%s\n", cfg.side, cfg.side, g)
	}

	opts := core.Options{MaxSteps: cfg.maxSteps}
	var tracer *trace.PositionTracer
	if cfg.trace {
		if g.CountValue(1) != 1 {
			return fmt.Errorf("-trace needs a permutation input (value 1 unique), got input %q", cfg.input)
		}
		tracer = trace.NewPositionTracer(g, 1)
		opts.Observer = tracer.Observe
	}
	if cfg.every > 0 {
		zeroOne := g.CountValue(0)+g.CountValue(1) == g.Len()
		prev := opts.Observer
		opts.Observer = func(t int, gg *grid.Grid) {
			if prev != nil {
				prev(t, gg)
			}
			if t%cfg.every == 0 {
				if zeroOne {
					fmt.Printf("after step %d:\n%s\n", t, gg.CompactZeroOne())
				} else {
					fmt.Printf("after step %d:\n%s\n", t, gg)
				}
			}
		}
	}

	res, err := core.Sort(g, alg, opts)
	if err != nil {
		return err
	}
	n := cfg.side * cfg.side
	fmt.Printf("algorithm   %s (%s order)\n", alg, alg.Order())
	fmt.Printf("mesh        %d×%d (N = %d)\n", cfg.side, cfg.side, n)
	fmt.Printf("steps       %d (%.3f·N)\n", res.Steps, float64(res.Steps)/float64(n))
	fmt.Printf("swaps       %d\n", res.Swaps)
	fmt.Printf("comparisons %d\n", res.Comparisons)
	if cfg.show {
		fmt.Printf("\noutput:\n%s", g)
	}
	if tracer != nil {
		pos := tracer.Positions()
		settle := tracer.StepsToReach(0, 0)
		fmt.Printf("\nsmallest element: start (%d,%d), reached top-left after step %d\n",
			pos[0].Row, pos[0].Col, settle)
	}
	return nil
}

func buildInput(kind string, side int, seed uint64, order grid.Order) (*grid.Grid, error) {
	switch kind {
	case "random":
		return workload.RandomPermutation(rng.New(seed), side, side), nil
	case "zero-column":
		return workload.AllZeroColumn(side, side, 0), nil
	case "smallest-column":
		return workload.SmallestInColumn(side, side, 0), nil
	case "sorted":
		return workload.SortedGrid(side, side, order), nil
	case "reversed":
		return workload.ReversedGrid(side, side, order), nil
	default:
		return nil, fmt.Errorf("unknown input %q", kind)
	}
}
