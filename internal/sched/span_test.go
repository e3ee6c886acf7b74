package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
)

// TestCompileSpansLossless proves the span compilation — the span plan
// the engine's span kernel runs — exact for every schedule on the
// kerneltest shape matrix plus further thin and rectangular shapes: each
// step's spans expand to the same comparator set Step(t) yields.
func TestCompileSpansLossless(t *testing.T) {
	shapes := [][2]int{
		{1, 2}, {2, 2}, {4, 4}, {6, 6}, {8, 8}, {5, 6}, {3, 8}, {1, 8}, {9, 6}, {9, 8}, {16, 4}, {5, 14},
	}
	oddColShapes := [][2]int{{6, 5}, {8, 1}, {1, 7}, {1, 1}, {7, 3}, {9, 9}, {13, 5}}
	check := func(t *testing.T, name string, rows, cols int) {
		s, err := sched.ByName(name, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		steps, ok := engine.SpanSteps(s)
		if !ok {
			t.Fatalf("%s %dx%d: no span plan", name, rows, cols)
		}
		if len(steps) != s.Period() {
			t.Fatalf("%s %dx%d: %d span steps, period %d", name, rows, cols, len(steps), s.Period())
		}
		for step := 1; step <= s.Period(); step++ {
			want := append([]sched.Comparator(nil), s.Step(step)...)
			got := steps[step-1]
			if len(got) != len(want) {
				t.Fatalf("%s %dx%d step %d: %d expanded comparators, want %d",
					name, rows, cols, step, len(got), len(want))
			}
			schedtest.SortComparators(want)
			schedtest.SortComparators(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %dx%d step %d comparator %d: span %v != schedule %v",
						name, rows, cols, step, i, got[i], want[i])
				}
			}
		}
	}
	for _, name := range append(sched.Names(), "rm-rf-nowrap") {
		t.Run(name, func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(t *testing.T) {
					check(t, name, sh[0], sh[1])
				})
			}
			if name == "rm-rf" || name == "rm-cf" || name == "rm-rf-nowrap" {
				return // the row-major schedules require even columns
			}
			t.Run("odd-cols", func(t *testing.T) {
				for _, sh := range oddColShapes {
					t.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(t *testing.T) {
						check(t, name, sh[0], sh[1])
					})
				}
			})
		})
	}
}
