package report

import "repro/internal/mcbatch"

// SpecJSON is the one canonical JSON encoding of a batched trial Spec,
// the spec echo every meshsortd result payload and campaign record
// carries (ResultPayload.Spec).
//
// Only result-determining fields have a wire form. The execution hints
// (Kernel, Workers, Shards) cannot change results and are excluded from
// the cache key, so they are not encoded; functional Spec fields (Stream,
// Gen) have no wire form either, and a Spec carrying them should be
// described by its canonical resolution (see mcbatch.Spec.Hash) or not at
// all.
type SpecJSON struct {
	Algorithm string `json:"algorithm"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Trials    int    `json:"trials"`
	// TrialOffset is the global index of the batch's first trial: non-zero
	// exactly for fabric shards, which run [TrialOffset, TrialOffset+Trials)
	// of a larger experiment. Omitted when zero, so whole-experiment
	// payloads keep their pre-fabric bytes.
	TrialOffset int    `json:"trial_offset,omitempty"`
	Seed        uint64 `json:"seed"`
	MaxSteps    int    `json:"max_steps,omitempty"`
	ZeroOne     bool   `json:"zeroone,omitempty"`
}

// CanonicalSpecOf encodes s with every defaulted field resolved (Seed,
// MaxSteps), mirroring the mcbatch.Spec.Hash cache-key contract: two Specs
// with equal hashes encode to the identical CanonicalSpecOf value, so a
// content-addressed payload embedding it stays byte-identical no matter
// which submission populated the cache.
func CanonicalSpecOf(s mcbatch.Spec) SpecJSON {
	return SpecJSON{
		Algorithm:   s.Algorithm.ShortName(),
		Rows:        s.Rows,
		Cols:        s.Cols,
		Trials:      s.Trials,
		TrialOffset: s.TrialOffset,
		Seed:        mcbatch.CanonicalSeed(s.Seed),
		MaxSteps:    mcbatch.CanonicalMaxSteps(s.MaxSteps, s.Rows, s.Cols),
		ZeroOne:     s.ZeroOne,
	}
}
