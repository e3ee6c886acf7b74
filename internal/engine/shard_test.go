package engine

import (
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
	"repro/internal/workload"
)

// TestShardSpanPlanPartition proves the splitting math directly: for
// every schedule and several shapes and shard counts, each phase's
// sub-spans must partition the serial phase's pair set exactly — no pair
// duplicated or dropped — and every pair's lo cell must lie inside its
// owning shard's row block.
func TestShardSpanPlanPartition(t *testing.T) {
	for _, shape := range [][2]int{{4, 4}, {6, 4}, {7, 6}, {9, 8}, {16, 16}, {5, 2}, {7, 5}, {9, 1}} {
		rows, cols := shape[0], shape[1]
		g := grid.New(rows, cols)
		scheds := schedules(rows, cols)
		if rows == 4 && cols == 4 {
			// Lo cells (3,2) and (0,1) are the last even-column and the
			// first odd-column shadow cells, and their hi cells (3,1) and
			// (3,3) are consecutive too: a span joining them across the
			// halves would lose its second pair to the row split.
			scheds = append(scheds, schedtest.NewPhases(4, 4, grid.Snake,
				[][]sched.Comparator{{{Lo: 14, Hi: 13}, {Lo: 1, Hi: 15}}}))
		}
		for _, s := range scheds {
			plan := buildSpanPlan(s, g)
			if plan == nil {
				t.Fatalf("%s %dx%d: no span plan", s.Name(), rows, cols)
			}
			checkLossless(t, s, plan)
			for _, shards := range []int{2, 3, 4, 8} {
				if shards > rows {
					continue
				}
				sp := shardSpanPlan(plan, shards)
				// Reconstruct the shard row boundaries the same way.
				bound := make([]int, shards+1)
				base, rem := rows/shards, rows%shards
				for i := 1; i <= shards; i++ {
					bound[i] = bound[i-1] + base
					if i-1 < rem {
						bound[i]++
					}
				}
				for pi, ph := range plan.phases {
					seen := map[[2]int32]int{}
					for _, s0 := range ph.spans {
						for k := int32(0); k < s0.pairs; k++ {
							seen[[2]int32{s0.lo + k, s0.hi + k}]++
						}
					}
					for si, part := range sp.phases[pi] {
						for _, s0 := range part.spans {
							for k := int32(0); k < s0.pairs; k++ {
								p := [2]int32{s0.lo + k, s0.hi + k}
								if r := plan.flat(p[0]) / cols; r < bound[si] || r >= bound[si+1] {
									t.Fatalf("%s %dx%d shards=%d phase %d: pair %v in row %d, outside shard %d rows [%d,%d)",
										s.Name(), rows, cols, shards, pi, p, r, si, bound[si], bound[si+1])
								}
								if seen[p] == 0 {
									t.Fatalf("%s %dx%d shards=%d phase %d: sharded pair %v not in serial set (or repeated)",
										s.Name(), rows, cols, shards, pi, p)
								}
								seen[p]--
							}
						}
					}
					for p, left := range seen {
						if left != 0 {
							t.Fatalf("%s %dx%d shards=%d phase %d: serial pair %v dropped", s.Name(), rows, cols, shards, pi, p)
						}
					}
				}
			}
		}
	}
}

// TestShardedMatchesSerialSpan is the engine-level equivalence check:
// for every schedule, several shapes and shard counts, and both full
// runs and mid-phase step caps, the sharded executor must produce the
// identical Result, error, and final grid as the serial span kernel.
func TestShardedMatchesSerialSpan(t *testing.T) {
	for _, shape := range [][2]int{{4, 4}, {6, 4}, {7, 6}, {9, 8}, {16, 16}, {5, 2}, {12, 3}} {
		rows, cols := shape[0], shape[1]
		for _, s := range schedules(rows, cols) {
			for trial := 0; trial < 3; trial++ {
				src := rng.NewStream(7, uint64(trial)<<8|uint64(rows))
				input := workload.RandomPermutation(src, rows, cols)
				for _, maxSteps := range []int{0, 1, 3, s.Period() + 1} {
					ref := input.Clone()
					want, wantErr := Run(ref, s, Options{Kernel: KernelSpan, MaxSteps: maxSteps})
					for _, shards := range []int{1, 2, 3, 4, 8} {
						got := input.Clone()
						res, err := Run(got, s, Options{Kernel: KernelSpanSharded, Shards: shards, MaxSteps: maxSteps})
						if res != want {
							t.Fatalf("%s %dx%d shards=%d cap=%d trial %d: result %+v, want %+v",
								s.Name(), rows, cols, shards, maxSteps, trial, res, want)
						}
						if !sameStepLimit(err, wantErr) {
							t.Fatalf("%s %dx%d shards=%d cap=%d trial %d: err %v, want %v",
								s.Name(), rows, cols, shards, maxSteps, trial, err, wantErr)
						}
						if !got.Equal(ref) {
							t.Fatalf("%s %dx%d shards=%d cap=%d trial %d: final grids differ",
								s.Name(), rows, cols, shards, maxSteps, trial)
						}
					}
				}
			}
		}
	}
}

func sameStepLimit(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	var ea, eb *ErrStepLimit
	if !errors.As(a, &ea) || !errors.As(b, &eb) {
		return a.Error() == b.Error()
	}
	return *ea == *eb
}

// TestShardPoolReuse pins the pool's steady-state contract: one pool
// serves runs of different plans, shard counts (up to its capacity), and
// grids without leaking state between them.
func TestShardPoolReuse(t *testing.T) {
	pool := NewShardPool(4)
	defer pool.Close()
	for _, shape := range [][2]int{{8, 8}, {6, 4}, {8, 8}, {9, 8}} {
		rows, cols := shape[0], shape[1]
		for _, s := range schedules(rows, cols)[:2] {
			for trial := 0; trial < 2; trial++ {
				src := rng.NewStream(11, uint64(trial)<<8|uint64(rows*cols))
				input := workload.RandomPermutation(src, rows, cols)
				ref := input.Clone()
				want, wantErr := Run(ref, s, Options{Kernel: KernelSpan})
				for _, shards := range []int{2, 3, 4, 8} { // 8 > capacity: must clamp, not break
					got := input.Clone()
					res, err := Run(got, s, Options{Kernel: KernelSpanSharded, Shards: shards, ShardPool: pool})
					if res != want || !sameStepLimit(err, wantErr) || !got.Equal(ref) {
						t.Fatalf("%s %dx%d shards=%d: pooled run diverged: %+v/%v want %+v/%v",
							s.Name(), rows, cols, shards, res, err, want, wantErr)
					}
				}
			}
		}
	}
}

// TestShardedStepLoopAllocFree proves the hot loop allocates nothing in
// steady state: with a warmed pool, a long run and a short run of the
// same spec must cost the identical (small, fixed) number of allocations
// — i.e. the per-step barrier loop contributes zero.
func TestShardedStepLoopAllocFree(t *testing.T) {
	const rows, cols = 32, 32
	s, err := sched.Cached("snake-a", rows, cols) // shared: plan caches hit
	if err != nil {
		t.Fatal(err)
	}
	pool := NewShardPool(3)
	defer pool.Close()
	src := rng.NewStream(3, 99)
	input := workload.RandomPermutation(src, rows, cols)
	buf := grid.New(rows, cols)
	run := func(maxSteps int) func() {
		return func() {
			copy(buf.Cells(), input.Cells())
			_, err := Run(buf, s, Options{Kernel: KernelSpanSharded, Shards: 3, ShardPool: pool, MaxSteps: maxSteps})
			var lim *ErrStepLimit
			if err != nil && !errors.As(err, &lim) {
				t.Fatal(err)
			}
		}
	}
	run(0)() // warm the pool's arenas and the plan caches
	// Both runs hit the step cap, so they share every fixed per-run cost
	// (permutation check, error value); any difference is per-step allocation.
	short := testing.AllocsPerRun(5, run(2))
	long := testing.AllocsPerRun(5, run(500))
	if long != short {
		t.Fatalf("allocs grow with steps: %v for 2 steps vs %v for 500 — the barrier loop allocates", short, long)
	}
}

// TestAutoShards pins the heuristic's contract: no sharding below the
// cache budget or without a parallelism budget, shard counts bounded by
// the budget, the row floor, and maxShards.
func TestAutoShards(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, budget, want int
	}{
		{64, 64, 8, 1},        // 16 KiB shadow: fits any L2
		{256, 256, 8, 1},      // 256 KiB: still under the budget
		{512, 512, 8, 8},      // 1 MiB: shard to the full budget
		{512, 512, 1, 1},      // no procs to spare
		{1024, 1024, 8, 8},    // the tentpole regime
		{1024, 1024, 3, 3},    // budget-bound
		{40, 8192, 8, 1},      // wide but short: row floor (40/32) caps at 1
		{96, 8192, 8, 3},      // row floor: 96/32
		{4096, 4096, 128, 64}, // maxShards cap
	} {
		if got := AutoShards(tc.rows, tc.cols, tc.budget); got != tc.want {
			t.Errorf("AutoShards(%d, %d, %d) = %d, want %d", tc.rows, tc.cols, tc.budget, got, tc.want)
		}
	}
}
