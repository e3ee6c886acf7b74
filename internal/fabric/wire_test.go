package fabric

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mcbatch"
)

// FuzzShardResponse feeds arbitrary bytes through json.Unmarshal into a
// ShardResponse and decodes it against one fixed 130-trial shard (three
// step slices). Decode must never panic, and a response it accepts must
// hand back exactly its tallies, whose step slices, recomputed, equal the
// shipped step_slices bit for bit. Seeds: a real worker response, a
// truncated body, one with a step slice missing, and one under another
// key.
func FuzzShardResponse(f *testing.F) {
	spec := mcbatch.Spec{Algorithm: core.SnakeA, Rows: 4, Cols: 4, Trials: 130, Seed: 7}
	key, err := spec.Hash()
	if err != nil {
		f.Fatal(err)
	}
	b, err := mcbatch.RunCtx(context.Background(), spec)
	if err != nil {
		f.Fatal(err)
	}
	good := BuildShardResponse(key.String(), b)
	mustJSON := func(r ShardResponse) []byte {
		buf, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	body := mustJSON(good)
	f.Add(body)
	f.Add(body[:len(body)/2])
	short := good
	short.StepSlices = good.StepSlices[:len(good.StepSlices)-1]
	f.Add(mustJSON(short))
	wrongKey := good
	wrongKey.Key = "deadbeef"
	f.Add(mustJSON(wrongKey))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r ShardResponse
		if json.Unmarshal(data, &r) != nil {
			return
		}
		trials, parts, err := r.Decode(key.String(), spec.Trials)
		if err != nil {
			return
		}
		if len(trials) != spec.Trials || len(parts) != len(r.StepSlices) {
			t.Fatalf("accepted %d trials and %d partials, want %d and %d", len(trials), len(parts), spec.Trials, len(r.StepSlices))
		}
		for i, tr := range trials {
			if tr != (mcbatch.Trial{Steps: r.Steps[i], Swaps: r.Swaps[i], Comparisons: r.Comparisons[i]}) {
				t.Fatalf("trial %d = %+v, tallies %d/%d/%d", i, tr, r.Steps[i], r.Swaps[i], r.Comparisons[i])
			}
		}
		local := mcbatch.SliceWelfords(trials)
		if len(local) != len(r.StepSlices) {
			t.Fatalf("%d recomputed step slices, response has %d", len(local), len(r.StepSlices))
		}
		for i, w := range local {
			n, mean, m2, lo, hi := w.State()
			got := WelfordWire{N: n, Mean: mean, M2: m2, Min: lo, Max: hi}
			if !wireBitsEqual(got, r.StepSlices[i]) || !welfordBitsEqual(parts[i], w) {
				t.Fatalf("step slice %d: recomputed %+v, shipped %+v", i, got, r.StepSlices[i])
			}
		}
	})
}

// wireBitsEqual compares two wire accumulators bit for bit.
func wireBitsEqual(a, b WelfordWire) bool {
	return a.N == b.N &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.M2) == math.Float64bits(b.M2) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}
