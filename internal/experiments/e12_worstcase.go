package experiments

import (
	"errors"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Worst-case inputs for the row-major algorithms",
		Claim: "Corollary 1: an all-zero column forces ≥ 2N − 4√N steps; §1: without wrap-around wires the input never sorts",
		Run:   runE12,
	})
}

func runE12(cfg Config) (*Outcome, error) {
	o := newOutcome("E12", "worst-case inputs, row-major algorithms")
	sides := pickInts(cfg, []int{8, 16, 32, 64}, []int{8, 16})

	t := report.NewTable("steps on the all-zero-column 0-1 mesh",
		"side", "N", "algorithm", "steps", "Corollary 1 bound 2N−4√N", "steps≥bound", "≤ 2N+4√N envelope")
	for _, side := range sides {
		cells := side * side
		bound := analysis.Corollary1WorstCase(cells, side)
		envelope := 2*cells + 4*side // §1: the embedded linear array caps the worst case at ~2N
		for _, alg := range []core.Algorithm{core.RowMajorRowFirst, core.RowMajorColFirst} {
			g := workload.AllZeroColumn(side, side, 0)
			res, err := core.Sort(g, alg, core.Options{})
			if err != nil {
				return nil, err
			}
			ok := res.Steps >= bound
			under := res.Steps <= envelope
			t.AddRow(side, cells, alg.ShortName(), res.Steps, bound, ok, under)
			o.check(ok, "%s side %d: %d steps < Corollary 1 bound %d", alg.ShortName(), side, res.Steps, bound)
			o.check(under, "%s side %d: %d steps above the 2N+4√N envelope", alg.ShortName(), side, res.Steps)
		}
	}
	o.Tables = append(o.Tables, t)

	// The permutation version of the same adversarial shape: the smallest
	// √N values start in one column.
	t2 := report.NewTable("steps on the smallest-values-in-one-column permutation",
		"side", "N", "algorithm", "steps", "steps/N")
	for _, side := range sides {
		for _, alg := range []core.Algorithm{core.RowMajorRowFirst, core.RowMajorColFirst} {
			g := workload.SmallestInColumn(side, side, 0)
			res, err := core.Sort(g, alg, core.Options{})
			if err != nil {
				return nil, err
			}
			t2.AddRow(side, side*side, alg.ShortName(), res.Steps, float64(res.Steps)/float64(side*side))
			o.check(res.Steps >= side*side/2,
				"%s side %d: adversarial permutation sorted in only %d steps", alg.ShortName(), side, res.Steps)
		}
	}
	o.Tables = append(o.Tables, t2)

	// Ablation: drop the wrap-around wires. The all-zero column must never
	// disperse (the step cap is hit).
	t3 := report.NewTable("ablation: rm-rf without wrap-around wires on the all-zero column",
		"side", "cap", "sorted?", "misplaced at cap")
	for _, side := range pickInts(cfg, []int{8, 16}, []int{8}) {
		g := workload.AllZeroColumn(side, side, 0)
		cap := 40 * side * side
		_, err := core.Sort(g, core.RowMajorRowFirstNoWrap, core.Options{MaxSteps: cap})
		var limit *engine.ErrStepLimit
		hitCap := errors.As(err, &limit)
		mis := 0
		if hitCap {
			mis = limit.Misplaced
		}
		t3.AddRow(side, cap, !hitCap, mis)
		o.check(hitCap, "side %d: the no-wrap ablation sorted the all-zero column — it must not", side)
	}
	o.Tables = append(o.Tables, t3)
	o.note("the ablation reproduces the paper's §1 motivation for the wrap-around wires")
	return o, nil
}
