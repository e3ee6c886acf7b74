package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/report"
	"repro/internal/sortnet"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "Exact small-mesh analysis (extension)",
		Claim: "Extension beyond the paper: exact worst-case step counts over ALL inputs for 4×4 meshes (via the threshold decomposition theorem) and exact average-case step counts for 2×2/3×3 by full permutation enumeration",
		Run:   runE16,
	})
}

// e16Worst is each algorithm's exact 4×4 worst case, and e16StepTotals
// the sum of the step counts over all permutations of a side-2 or
// side-3 mesh (the exact mean is that total over side²!). They were
// computed by this experiment's enumerations and are pinned exactly.
var (
	e16Worst = map[core.Algorithm]int{
		core.RowMajorRowFirst: 23, core.RowMajorColFirst: 24,
		core.SnakeA: 27, core.SnakeB: 29, core.SnakeC: 29, core.Shearsort: 18,
	}
	e16StepTotals = map[int]map[core.Algorithm]int{
		2: {core.RowMajorRowFirst: 59, core.RowMajorColFirst: 59, core.SnakeA: 101, core.SnakeB: 125, core.SnakeC: 99},
		3: {core.SnakeA: 4_029_359, core.SnakeB: 4_499_191, core.SnakeC: 4_870_807},
	}
)

func runE16(cfg Config) (*Outcome, error) {
	o := newOutcome("E16", "exact small-mesh analysis")

	// Exact worst case on 4×4 (16-cell exhaustion: 65536 0-1 inputs per
	// algorithm; the threshold decomposition theorem makes this the true
	// worst case over all inputs).
	t := report.NewTable("exact worst-case steps over all inputs (4×4 mesh, N = 16)",
		"algorithm", "worst steps", "worst/N", "Corollary 1 bound", "zero-column steps")
	algs := core.AllAlgorithms()
	if cfg.Quick {
		algs = []core.Algorithm{core.RowMajorRowFirst, core.SnakeA}
	}
	for _, alg := range algs {
		s := alg.Schedule(4, 4)
		worst, witness, err := sortnet.ExactWorstCaseSteps(s)
		if err != nil {
			return nil, err
		}
		zc := workload.AllZeroColumn(4, 4, 0)
		zcSteps := 0
		if alg.Order() == grid.RowMajor {
			res, err := engine.Run(zc, s, engine.Options{})
			if err != nil {
				return nil, err
			}
			zcSteps = res.Steps
			t.AddRow(alg.ShortName(), worst, float64(worst)/16, analysis.Corollary1WorstCase(16, 4), zcSteps)
		} else {
			t.AddRow(alg.ShortName(), worst, float64(worst)/16, "—", "—")
		}
		want, ok := e16Worst[alg]
		o.check(ok && worst == want, "%s: exact worst %d, pinned %d", alg.ShortName(), worst, want)
		o.check(witness != nil, "%s: no worst-case witness", alg.ShortName())
	}
	o.Tables = append(o.Tables, t)

	// Exact average case by full permutation enumeration.
	t2 := report.NewTable("exact average-case steps (full permutation enumeration)",
		"mesh", "permutations", "algorithm", "exact mean steps", "mean/N")
	type job struct {
		side int
		algs []core.Algorithm
	}
	jobs := []job{{2, []core.Algorithm{core.RowMajorRowFirst, core.RowMajorColFirst, core.SnakeA, core.SnakeB, core.SnakeC}}}
	if !cfg.Quick {
		jobs = append(jobs, job{3, []core.Algorithm{core.SnakeA, core.SnakeB, core.SnakeC}})
	}
	for _, j := range jobs {
		n := j.side * j.side
		perms := permute(identity(n))
		for _, alg := range j.algs {
			s := alg.Schedule(j.side, j.side)
			total := 0
			for _, p := range perms {
				g := grid.FromValues(j.side, j.side, p)
				res, err := engine.Run(g, s, engine.Options{})
				if err != nil {
					return nil, err
				}
				total += res.Steps
			}
			mean := float64(total) / float64(len(perms))
			t2.AddRow(fmt.Sprintf("%d×%d", j.side, j.side), len(perms), alg.ShortName(), mean, mean/float64(n))
			want, ok := e16StepTotals[j.side][alg]
			o.check(ok && total == want, "%s side %d: step total over all %d permutations %d, pinned %d",
				alg.ShortName(), j.side, len(perms), total, want)
		}
	}
	o.Tables = append(o.Tables, t2)
	o.note("these exact values are not in the paper; they pin the constants the asymptotic theorems leave open")
	return o, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// permute returns all permutations of a (test/small sizes only).
func permute(a []int) [][]int {
	if len(a) <= 1 {
		return [][]int{append([]int(nil), a...)}
	}
	var out [][]int
	for i := range a {
		rest := make([]int, 0, len(a)-1)
		rest = append(rest, a[:i]...)
		rest = append(rest, a[i+1:]...)
		for _, p := range permute(rest) {
			out = append(out, append([]int{a[i]}, p...))
		}
	}
	return out
}
