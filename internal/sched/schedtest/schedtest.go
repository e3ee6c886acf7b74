// Package schedtest builds schedules for tests: explicit phase lists, and
// random disjoint adjacent-pair phases in the style of the random
// adjacent transposition schedules of Olesker-Taylor. The kernels' fuzz
// targets share one generator through it.
package schedtest

import (
	"cmp"
	"slices"

	"repro/internal/grid"
	"repro/internal/sched"
)

// Phases is an ad-hoc schedule that cycles through explicit phases.
type Phases struct {
	rows, cols int
	order      grid.Order
	phases     [][]sched.Comparator
}

// NewPhases returns the schedule on an R×C mesh whose step t runs
// phases[(t-1) mod len(phases)], targeting order.
func NewPhases(rows, cols int, order grid.Order, phases [][]sched.Comparator) *Phases {
	return &Phases{rows: rows, cols: cols, order: order, phases: phases}
}

func (p *Phases) Name() string                  { return "phases" }
func (p *Phases) Order() grid.Order             { return p.order }
func (p *Phases) Dims() (int, int)              { return p.rows, p.cols }
func (p *Phases) Period() int                   { return len(p.phases) }
func (p *Phases) Step(t int) []sched.Comparator { return p.phases[(t-1)%len(p.phases)] }

// RandomPhases builds one to four random disjoint adjacent-pair phases on
// an R×C mesh from a fuzzer's bytes: each cell, in flat order, is left
// alone or paired with a free right or lower neighbour. With wrap set, a
// row's last cell may instead pair with the next row's first cell, like
// the row-major schedules' wrap-around wires. Pairs send the minimum to
// the lower target rank unless flip is set and the byte says otherwise;
// the result reports whether any pair was flipped.
func RandomPhases(rows, cols int, order grid.Order, data []byte, flip, wrap bool) ([][]sched.Comparator, bool) {
	next := 0
	byteAt := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[next%len(data)]
		next++
		return b ^ byte(next/len(data))
	}
	g := grid.New(rows, cols)
	n := rows * cols
	rank := make([]int, n)
	for m := 0; m < n; m++ {
		rank[g.RankFlat(order, m)] = m
	}
	flipped := false
	phases := make([][]sched.Comparator, 1+int(byteAt())%4)
	for pi := range phases {
		used := make([]bool, n)
		for f := 0; f < n; f++ {
			b := byteAt()
			partner := -1
			switch b % 3 {
			case 1:
				if f%cols+1 < cols || wrap && f+1 < n {
					partner = f + 1
				}
			case 2:
				if f+cols < n {
					partner = f + cols
				}
			}
			if used[f] || partner < 0 || used[partner] {
				continue
			}
			used[f], used[partner] = true, true
			lo, hi := f, partner
			if rank[lo] > rank[hi] {
				lo, hi = hi, lo
			}
			if flip && b&0x80 != 0 {
				lo, hi = hi, lo
				flipped = true
			}
			phases[pi] = append(phases[pi], sched.Comparator{Lo: int32(lo), Hi: int32(hi)})
		}
	}
	return phases, flipped
}

// SortComparators orders cs by (Lo, Hi), so that two expansions of one
// step compare as sets: a step's comparators are disjoint, so their order
// carries no meaning.
func SortComparators(cs []sched.Comparator) {
	slices.SortFunc(cs, func(a, b sched.Comparator) int {
		return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
	})
}
