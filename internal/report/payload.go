package report

import (
	"encoding/json"

	"repro/internal/mcbatch"
	"repro/internal/stats"
)

// Summary is the wire form of one Welford accumulator: the E[·]/Var(·)
// estimates the paper's tables are built from, plus the extremes. CI95 is
// omitted when fewer than two trials make it undefined (JSON cannot carry
// +Inf).
type Summary struct {
	N        int64    `json:"n"`
	Mean     float64  `json:"mean"`
	Variance float64  `json:"variance"`
	StdDev   float64  `json:"stddev"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	CI95     *float64 `json:"ci95,omitempty"`
}

// Summarize converts a Welford accumulator to its wire form.
func Summarize(w stats.Welford) Summary {
	s := Summary{
		N:        w.N(),
		Mean:     w.Mean(),
		Variance: w.Variance(),
		StdDev:   w.StdDev(),
		Min:      w.Min(),
		Max:      w.Max(),
	}
	if w.N() >= 2 {
		ci := w.CI95()
		s.CI95 = &ci
	}
	return s
}

// ResultPayload is the canonical serialized result of one batch: the spec
// echo in canonical form, the content address, and the paper statistics
// over the batch. It is the body meshsortd serves for a finished job AND
// the record a campaign persists per cell, so both layers share one
// byte-for-byte encoding. It is built purely from the deterministic Batch
// — no timestamps, no server identity — so identical Specs always yield
// byte-identical payloads, which is what makes the result cache and the
// durable store transparent (docs/INVARIANTS.md, Durability).
type ResultPayload struct {
	Spec        SpecJSON `json:"spec"`
	Key         string   `json:"key"`
	Steps       Summary  `json:"steps"`
	Swaps       Summary  `json:"swaps"`
	Comparisons Summary  `json:"comparisons"`
}

// BuildPayload marshals the result of a finished batch. The three
// summaries are folded in trial-index order (like Batch.Steps), so the
// floating-point aggregates are deterministic under any worker count.
// Execution hints on spec (Workers, Kernel, Shards) never reach the
// bytes: the embedded spec is the canonical resolution. The returned
// slice has no spare capacity, because the result cache (512 entries)
// and the job registry of /v1/jobs results (4,096) retain payloads.
func BuildPayload(spec mcbatch.Spec, key mcbatch.Key, b *mcbatch.Batch) ([]byte, error) {
	var swaps, comparisons stats.Welford
	for _, t := range b.Trials {
		swaps.Add(float64(t.Swaps))
		comparisons.Add(float64(t.Comparisons))
	}
	p := ResultPayload{
		Spec:        CanonicalSpecOf(spec),
		Key:         key.String(),
		Steps:       Summarize(b.Steps),
		Swaps:       Summarize(swaps),
		Comparisons: Summarize(comparisons),
	}
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(buf)+1)
	copy(out, buf)
	out[len(buf)] = '\n'
	return out, nil
}
