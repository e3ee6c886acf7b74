package mcbatch

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDefaultStreamDistinct pins that no trial reuses another trial's
// random stream: at two sides, every algorithm's first 1,000,000 ids
// (the daemon's default trial limit) are pairwise distinct, and over the
// first 2^17 trials and a sample far past them the ids of every
// (side, algorithm) are distinct from each other's.
func TestDefaultStreamDistinct(t *testing.T) {
	const trials = 1_000_000
	ids := make([]uint64, trials)
	for _, side := range []int{32, 48} {
		for _, alg := range core.AllAlgorithms() {
			stream := DefaultStream(alg, side)
			for i := range ids {
				ids[i] = stream(i)
			}
			slices.Sort(ids)
			for i := 1; i < trials; i++ {
				if ids[i] == ids[i-1] {
					t.Fatalf("%s side %d: stream id %#x drawn twice in %d trials", alg.ShortName(), side, ids[i], trials)
				}
			}
		}
	}
	var all []uint64
	for _, side := range []int{1, 2, 32, 48} {
		for _, alg := range core.AllAlgorithms() {
			stream := DefaultStream(alg, side)
			for i := 0; i < 1<<17; i++ {
				all = append(all, stream(i))
			}
			for _, i := range []int{1 << 20, 1<<20 + 1, 1 << 31, MaxTrialIndex - 1} {
				all = append(all, stream(i))
			}
		}
	}
	slices.Sort(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Fatalf("stream id %#x shared by two (side, algorithm, trial) triples", all[i])
		}
	}
}

// TestDefaultStreamLowIDsUnchanged pins the ids below trial 65,536,
// which every recorded table, golden and stored record was generated
// with: side<<20 | algorithm<<16 | trial.
func TestDefaultStreamLowIDsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		alg   core.Algorithm
		side  int
		trial int
		want  uint64
	}{
		{core.RowMajorRowFirst, 8, 0, 0x800000},
		{core.RowMajorColFirst, 32, 0, 0x2010000},
		{core.SnakeA, 32, 17, 0x2020011},
		{core.Shearsort, 48, 65535, 0x305ffff},
		{core.SnakeC, 1448, 1000, 0x5a8403e8},
	} {
		if got := DefaultStream(tc.alg, tc.side)(tc.trial); got != tc.want {
			t.Errorf("DefaultStream(%s, %d)(%d) = %#x, want %#x", tc.alg.ShortName(), tc.side, tc.trial, got, tc.want)
		}
	}
}

// TestTrialOffsetStreamsDistinct: a spec shifted by TrialOffset draws
// ids distinct from each other and from the unshifted trials, across
// the 65,536 boundary and far past it.
func TestTrialOffsetStreamsDistinct(t *testing.T) {
	for _, alg := range core.AllAlgorithms() {
		stream := DefaultStream(alg, 32)
		seen := map[uint64]int{}
		for _, off := range []int{0, 65_436, 131_000, 1 << 20, 1 << 31} {
			for i := off; i < off+200; i++ {
				id := stream(i)
				if prev, dup := seen[id]; dup {
					t.Fatalf("%s: trials %d and %d share stream id %#x", alg.ShortName(), prev, i, id)
				}
				seen[id] = i
			}
		}
	}
}

// TestTrialRangeRejected: RunCtx and Hash refuse a trial range past
// MaxTrialIndex, or past 65,536 on a mesh of 2^27 rows, instead of
// drawing repeated streams; a custom Stream is not bounded.
func TestTrialRangeRejected(t *testing.T) {
	for _, spec := range []Spec{
		{Algorithm: core.SnakeA, Rows: 4, Cols: 4, Trials: 1, TrialOffset: MaxTrialIndex},
		{Algorithm: core.SnakeA, Rows: 4, Cols: 4, Trials: 2, TrialOffset: MaxTrialIndex - 1},
		{Algorithm: core.SnakeA, Rows: 1 << 27, Cols: 1, Trials: 1, TrialOffset: 1 << 16},
	} {
		if _, err := spec.Hash(); err == nil || !strings.Contains(err.Error(), "trial range") {
			t.Errorf("Hash %+v: err %v, want a trial-range error", spec, err)
		}
		if _, err := RunCtx(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "trial range") {
			t.Errorf("RunCtx %+v: err %v, want a trial-range error", spec, err)
		}
	}
	last := Spec{Algorithm: core.SnakeA, Rows: 4, Cols: 4, Trials: 1, TrialOffset: MaxTrialIndex - 1}
	if _, err := RunCtx(context.Background(), last); err != nil {
		t.Fatalf("the last admitted trial: %v", err)
	}
	custom := last
	custom.TrialOffset = MaxTrialIndex
	custom.Stream = func(trial int) uint64 { return uint64(trial) }
	if _, err := custom.Hash(); err != nil {
		t.Fatalf("a custom Stream past MaxTrialIndex: %v", err)
	}
}
