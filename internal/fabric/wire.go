// Package fabric is the distributed trial fabric: a coordinator that
// splits one mcbatch.Spec's trial range into contiguous 64-aligned shards,
// dispatches each shard to a worker meshsortd node over HTTP, and folds
// the shard results back into a Batch that is bit-identical to a
// single-node run of the unsplit Spec.
//
// The determinism story is inherited, not invented here: trial i's result
// depends only on (Seed, Stream(i)), so a shard is just a sub-Spec whose
// TrialOffset selects its slice of the global trial range, and the
// concatenation of shard results in offset order is the unsplit trial
// list. Aggregation stays bit-identical because shards ship their per-64-
// slice Welford partials and the coordinator folds the concatenated
// partial list with stats.MergeAll — the exact fold a single node
// performs (see mcbatch.SliceWelfords and docs/INVARIANTS.md "Placement
// independence").
//
// Robustness is part of the throughput story: per-shard timeout and retry
// with deterministic jittered backoff, requeue of shards from dead peers
// onto live ones, /healthz probes that revive recovered peers, and
// graceful degradation to local execution when no peer can serve a shard.
// None of it can change results — every recovery path re-executes the
// same sub-Spec, and the coordinator cross-checks each shard's content
// address and aggregate bits before accepting it.
package fabric

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/stats"
)

// ShardPath is the worker-side HTTP endpoint that executes one shard.
// The coordinator POSTs a ShardRequest and expects a ShardResponse.
const ShardPath = "/v1/fabric/shard"

// ShardRequest is the wire form of a shard sub-Spec. It carries exactly
// the result-determining Spec fields — execution hints (Workers, Kernel,
// Shards) stay node-local, and functional fields (Stream, Gen) have no
// wire form, so only content-addressable Specs can be distributed.
type ShardRequest struct {
	Algorithm   string `json:"algorithm"`
	Rows        int    `json:"rows"`
	Cols        int    `json:"cols"`
	Trials      int    `json:"trials"`
	TrialOffset int    `json:"trial_offset"`
	Seed        uint64 `json:"seed"`
	MaxSteps    int    `json:"max_steps,omitempty"`
	ZeroOne     bool   `json:"zeroone,omitempty"`
}

// RequestFromSpec encodes the shard sub-Spec for the wire. Specs carrying
// functional fields cannot be encoded (same boundary as Spec.Hash).
func RequestFromSpec(s mcbatch.Spec) (ShardRequest, error) {
	if s.Gen != nil || s.Stream != nil {
		return ShardRequest{}, fmt.Errorf("fabric: %w: functional Spec fields (Gen/Stream) have no wire form", mcbatch.ErrNotHashable)
	}
	return ShardRequest{
		Algorithm:   s.Algorithm.ShortName(),
		Rows:        s.Rows,
		Cols:        s.Cols,
		Trials:      s.Trials,
		TrialOffset: s.TrialOffset,
		Seed:        s.Seed,
		MaxSteps:    s.MaxSteps,
		ZeroOne:     s.ZeroOne,
	}, nil
}

// ToSpec reconstructs the sub-Spec a worker should run. Execution hints
// are left zero, so the worker runs the class's kernel — a choice that
// cannot change results.
func (r ShardRequest) ToSpec() (mcbatch.Spec, error) {
	alg, err := core.ByName(r.Algorithm)
	if err != nil {
		return mcbatch.Spec{}, fmt.Errorf("fabric: %w", err)
	}
	if r.Trials < 0 || r.TrialOffset < 0 {
		return mcbatch.Spec{}, fmt.Errorf("fabric: invalid shard range [%d,%d)", r.TrialOffset, r.TrialOffset+r.Trials)
	}
	if r.MaxSteps < 0 {
		return mcbatch.Spec{}, fmt.Errorf("fabric: max_steps must be >= 0 (got %d)", r.MaxSteps)
	}
	if err := alg.CheckMesh(r.Rows, r.Cols); err != nil {
		return mcbatch.Spec{}, fmt.Errorf("fabric: %w", err)
	}
	spec := mcbatch.Spec{
		Algorithm:   alg,
		Rows:        r.Rows,
		Cols:        r.Cols,
		Trials:      r.Trials,
		TrialOffset: r.TrialOffset,
		Seed:        r.Seed,
		MaxSteps:    r.MaxSteps,
		ZeroOne:     r.ZeroOne,
	}
	if err := spec.CheckTrialRange(); err != nil {
		return mcbatch.Spec{}, fmt.Errorf("fabric: %w", err)
	}
	return spec, nil
}

// WelfordWire is the exact wire form of one stats.Welford accumulator.
// Go's JSON encoder writes float64s in shortest round-trip form, so the
// five components reconstruct the accumulator bit-identically; NaN or
// infinite components cannot occur (step counts are finite integers) and
// are rejected by the JSON encoder anyway.
type WelfordWire struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// ShardResponse is a worker's result for one shard: the per-trial tallies
// in trial order (columnar, so the coordinator can rebuild the global
// trial list and the payload's sequential swap/comparison folds exactly)
// plus the per-64-slice Welford step partials in slice order (the unit of
// the coordinator's MergeAll fold).
type ShardResponse struct {
	// Key is the shard sub-Spec's content address as computed by the
	// worker. The coordinator rejects a response whose key differs from
	// its own hash of the same sub-Spec — the cheap guard against
	// version drift between nodes.
	Key string `json:"key"`
	// Kernel records the kernel the worker executed the shard with;
	// observability only.
	Kernel string `json:"kernel,omitempty"`

	Steps       []int         `json:"steps"`
	Swaps       []int64       `json:"swaps"`
	Comparisons []int64       `json:"comparisons"`
	StepSlices  []WelfordWire `json:"step_slices"`
}

// BuildShardResponse encodes a worker's Batch for the wire.
func BuildShardResponse(key string, b *mcbatch.Batch) ShardResponse {
	resp := ShardResponse{
		Key:         key,
		Kernel:      core.KernelName(b.Kernel),
		Steps:       make([]int, len(b.Trials)),
		Swaps:       make([]int64, len(b.Trials)),
		Comparisons: make([]int64, len(b.Trials)),
	}
	for i, t := range b.Trials {
		resp.Steps[i] = t.Steps
		resp.Swaps[i] = t.Swaps
		resp.Comparisons[i] = t.Comparisons
	}
	for _, w := range mcbatch.SliceWelfords(b.Trials) {
		n, mean, m2, lo, hi := w.State()
		resp.StepSlices = append(resp.StepSlices, WelfordWire{N: n, Mean: mean, M2: m2, Min: lo, Max: hi})
	}
	return resp
}

// Decode validates the response against the shard it answers and returns
// the per-trial tallies and per-slice step partials. Beyond shape checks,
// it recomputes the slice partials from the shipped tallies and demands
// bit-identity — a corrupted or non-conforming worker cannot slip a
// result into the merge.
func (r *ShardResponse) Decode(wantKey string, wantTrials int) ([]mcbatch.Trial, []stats.Welford, error) {
	if r.Key != wantKey {
		return nil, nil, fmt.Errorf("fabric: shard key mismatch: worker computed %.12s…, coordinator %.12s… (version drift?)", r.Key, wantKey)
	}
	if len(r.Steps) != wantTrials || len(r.Swaps) != wantTrials || len(r.Comparisons) != wantTrials {
		return nil, nil, fmt.Errorf("fabric: shard returned %d/%d/%d tallies, want %d",
			len(r.Steps), len(r.Swaps), len(r.Comparisons), wantTrials)
	}
	wantSlices := (wantTrials + 63) / 64
	if len(r.StepSlices) != wantSlices {
		return nil, nil, fmt.Errorf("fabric: shard returned %d step slices, want %d", len(r.StepSlices), wantSlices)
	}
	trials := make([]mcbatch.Trial, wantTrials)
	for i := range trials {
		trials[i] = mcbatch.Trial{Steps: r.Steps[i], Swaps: r.Swaps[i], Comparisons: r.Comparisons[i]}
	}
	parts := make([]stats.Welford, len(r.StepSlices))
	for i, w := range r.StepSlices {
		parts[i] = stats.FromState(w.N, w.Mean, w.M2, w.Min, w.Max)
	}
	for i, local := range mcbatch.SliceWelfords(trials) {
		if !welfordBitsEqual(parts[i], local) {
			return nil, nil, fmt.Errorf("fabric: shard slice %d partial does not match its tallies", i)
		}
	}
	return trials, parts, nil
}

// welfordBitsEqual compares two accumulators component-wise at the bit
// level (Float64bits, so this is integer equality, not float tolerance —
// the fabric's contract is exactness).
func welfordBitsEqual(a, b stats.Welford) bool {
	an, amean, am2, alo, ahi := a.State()
	bn, bmean, bm2, blo, bhi := b.State()
	return an == bn &&
		math.Float64bits(amean) == math.Float64bits(bmean) &&
		math.Float64bits(am2) == math.Float64bits(bm2) &&
		math.Float64bits(alo) == math.Float64bits(blo) &&
		math.Float64bits(ahi) == math.Float64bits(bhi)
}
