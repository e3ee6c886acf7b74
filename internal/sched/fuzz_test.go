package sched

import (
	"testing"
)

// FuzzScheduleDisjoint fuzzes the disjointness invariant every executor
// depends on (the sharded span executor applies a step's comparators in
// parallel, the span and trial-sliced kernels in memory order): over a
// full period of any schedule on any mesh, no cell may appear in two
// comparators of the same step, every index must be in range, and no
// comparator may compare a cell with itself.
//
// Run with: go test -fuzz=FuzzScheduleDisjoint ./internal/sched/
func FuzzScheduleDisjoint(f *testing.F) {
	names := Names()
	for i := range names {
		f.Add(uint8(i), uint8(4), uint8(4))
		f.Add(uint8(i), uint8(1), uint8(8))
		f.Add(uint8(i), uint8(9), uint8(6))
	}
	f.Fuzz(func(t *testing.T, algIdx, rows, cols uint8) {
		names := Names()
		name := names[int(algIdx)%len(names)]
		r := 1 + int(rows)%32
		c := 1 + int(cols)%32
		if (name == "rm-rf" || name == "rm-cf" || name == "rm-rf-nowrap") && c%2 != 0 {
			c++ // the row-major schedules require even columns by design
		}
		s, err := ByName(name, r, c)
		if err != nil {
			t.Fatalf("ByName(%q, %d, %d): %v", name, r, c, err)
		}
		n := r * c
		seen := make([]int, n) // step number that last used each cell
		for step := 1; step <= s.Period(); step++ {
			for _, cmp := range s.Step(step) {
				lo, hi := int(cmp.Lo), int(cmp.Hi)
				if lo < 0 || lo >= n || hi < 0 || hi >= n {
					t.Fatalf("%s %dx%d step %d: comparator (%d,%d) out of range [0,%d)",
						name, r, c, step, lo, hi, n)
				}
				if lo == hi {
					t.Fatalf("%s %dx%d step %d: self-comparison at cell %d", name, r, c, step, lo)
				}
				if seen[lo] == step {
					t.Fatalf("%s %dx%d step %d: cell %d appears twice", name, r, c, step, lo)
				}
				if seen[hi] == step {
					t.Fatalf("%s %dx%d step %d: cell %d appears twice", name, r, c, step, hi)
				}
				seen[lo], seen[hi] = step, step
			}
		}
		// The compiled view must agree with Step(t) exactly.
		phases := PhasesOf(s)
		if len(phases) != s.Period() {
			t.Fatalf("%s %dx%d: %d phases for period %d", name, r, c, len(phases), s.Period())
		}
		for step := 1; step <= s.Period(); step++ {
			want := s.Step(step)
			got := phases[step-1]
			if len(got) != len(want) {
				t.Fatalf("%s %dx%d step %d: compiled %d comparators, Step(t) %d",
					name, r, c, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %dx%d step %d comparator %d: compiled %v != %v",
						name, r, c, step, i, got[i], want[i])
				}
			}
		}
	})
}
