package engine_test

import (
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/zeroone"
)

// FuzzSortsAnyInput fuzzes the end-to-end sorting contract: any integer
// grid (duplicates, negatives, adversarial patterns from the fuzzer)
// must reach target order within DefaultMaxSteps under every schedule,
// with the value multiset preserved. 0-1 inputs additionally run as one
// lane of the trial-sliced kernel (zeroone.SortSliced), the production
// 0-1 executor, whose Result and final grid must equal the scalar run's.
//
// Run with: go test -fuzz=FuzzSortsAnyInput ./internal/engine/
func FuzzSortsAnyInput(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(2), uint8(3), uint8(5), []byte{0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1})
	f.Add(uint8(5), uint8(1), uint8(9), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(1), uint8(6), uint8(6), []byte{255, 0, 128, 7, 7, 7})
	f.Fuzz(func(t *testing.T, algIdx, rows, cols uint8, data []byte) {
		names := sched.Names()
		name := names[int(algIdx)%len(names)]
		r := 1 + int(rows)%12
		c := 1 + int(cols)%12
		if (name == "rm-rf" || name == "rm-cf") && c%2 != 0 {
			c++ // the row-major schedules require even columns by design
		}
		n := r * c
		vals := make([]int, n)
		zeroOne := true
		for i := range vals {
			if i < len(data) {
				vals[i] = int(int8(data[i])) // signed: exercise negatives
			} else {
				vals[i] = i
			}
			if vals[i] != 0 && vals[i] != 1 {
				zeroOne = false
			}
		}
		input := grid.FromValues(r, c, vals)

		s, err := sched.Cached(name, r, c)
		if err != nil {
			t.Fatalf("sched.Cached(%q, %d, %d): %v", name, r, c, err)
		}
		g := input.Clone()
		res, err := engine.Run(g, s, engine.Options{})
		if err != nil {
			t.Fatalf("%s %dx%d did not sort %v: %v", name, r, c, vals, err)
		}
		if !res.Sorted || !g.IsSorted(s.Order()) {
			t.Fatalf("%s %dx%d: Run returned %+v but grid not in %v order", name, r, c, res, s.Order())
		}
		// The multiset of values must be preserved.
		got := g.Values()
		want := append([]int(nil), vals...)
		sort.Ints(got)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %dx%d: value multiset changed: %v -> %v", name, r, c, want, got)
			}
		}
		if res.Steps > engine.DefaultMaxSteps(r, c) {
			t.Fatalf("%s %dx%d: %d steps exceeds DefaultMaxSteps", name, r, c, res.Steps)
		}

		// 0-1 inputs: one lane of the trial-sliced kernel must agree bit
		// for bit.
		if zeroOne {
			ss, err := zeroone.CachedSliced(name, r, c)
			if err != nil {
				t.Fatal(err)
			}
			ts := zeroone.NewTrialSlice(r, c)
			ts.AddGrid(input)
			results, errs, err := zeroone.SortSliced(ts, ss, 0)
			if err != nil || errs != nil {
				t.Fatalf("sliced %s %dx%d: %v %v", name, r, c, err, errs)
			}
			if results[0] != res {
				t.Fatalf("sliced lane result %+v != scalar %+v", results[0], res)
			}
			if !ts.Extract(0).Equal(g) {
				t.Fatalf("sliced lane final grid differs from scalar")
			}
		}
	})
}
