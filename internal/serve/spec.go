package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mcbatch"
)

// JobRequest is the wire form of one trial-batch job, the body of
// POST /v1/jobs and POST /v1/sort. Either side (square mesh) or rows+cols
// must be given. The zero seed means the harness default (1), and zeroone
// runs the batch on the paper's half-0/half-1 workload instead of random
// permutations. The daemon picks the executor from the workload class
// (span for permutations, the trial-sliced 0-1 kernel for zeroone), so a
// request carries no execution hints; the kernel that ran is reported in
// the job status and /metrics.
type JobRequest struct {
	Algorithm string `json:"algorithm"`
	Side      int    `json:"side,omitempty"`
	Rows      int    `json:"rows,omitempty"`
	Cols      int    `json:"cols,omitempty"`
	Trials    int    `json:"trials"`
	// TrialOffset runs the global trials [trial_offset,
	// trial_offset+trials) of a larger experiment — the shard form a
	// fabric coordinator derives, also accepted here so any sub-range is
	// addressable as a plain job. The result payload's spec echo
	// (report.SpecJSON) carries it under the same tag.
	TrialOffset int    `json:"trial_offset,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	MaxSteps    int    `json:"max_steps,omitempty"`
	ZeroOne     bool   `json:"zeroone,omitempty"`
}

// Limits bounds what a single job may ask for, so one request cannot pin
// the daemon for hours. Zero fields take the package defaults.
type Limits struct {
	// MaxTrials caps JobRequest.Trials.
	MaxTrials int
	// MaxCells caps Rows×Cols.
	MaxCells int
}

const (
	defaultMaxTrials = 1_000_000
	defaultMaxCells  = 1 << 21 // e.g. 1448×1448, ~2M cells
)

// exceedsCells reports whether a rows×cols mesh (both at least 1) has
// more than max cells. It never forms the product, which wraps around
// for sides near 2^32.
func exceedsCells(rows, cols, max int) bool { return rows > max/cols }

func (l Limits) withDefaults() Limits {
	if l.MaxTrials <= 0 {
		l.MaxTrials = defaultMaxTrials
	}
	if l.MaxCells <= 0 {
		l.MaxCells = defaultMaxCells
	}
	return l
}

// ToSpec validates the request against lim and converts it to a batch
// Spec. The returned Spec carries no functional fields (Stream, Gen are
// nil) and no execution hints (Workers, Kernel are chosen by the daemon at
// run time), so it is exactly the content-addressable form that
// mcbatch.Spec.Hash keys the result cache with.
func (r JobRequest) ToSpec(lim Limits) (mcbatch.Spec, error) {
	lim = lim.withDefaults()
	alg, err := core.ByName(r.Algorithm)
	if err != nil {
		return mcbatch.Spec{}, fmt.Errorf("algorithm: %w", err)
	}
	rows, cols := r.Rows, r.Cols
	switch {
	case r.Side != 0 && (rows != 0 || cols != 0):
		return mcbatch.Spec{}, fmt.Errorf("give either side or rows+cols, not both")
	case r.Side != 0:
		rows, cols = r.Side, r.Side
	}
	if rows < 1 || cols < 1 {
		return mcbatch.Spec{}, fmt.Errorf("invalid mesh %dx%d: rows and cols (or side) must be >= 1", rows, cols)
	}
	if exceedsCells(rows, cols, lim.MaxCells) {
		return mcbatch.Spec{}, fmt.Errorf("mesh %dx%d exceeds the %d-cell limit", rows, cols, lim.MaxCells)
	}
	if err := alg.CheckMesh(rows, cols); err != nil {
		return mcbatch.Spec{}, err
	}
	if r.Trials < 1 {
		return mcbatch.Spec{}, fmt.Errorf("trials must be >= 1 (got %d)", r.Trials)
	}
	if r.Trials > lim.MaxTrials {
		return mcbatch.Spec{}, fmt.Errorf("trials %d exceeds the limit %d", r.Trials, lim.MaxTrials)
	}
	if r.TrialOffset < 0 {
		return mcbatch.Spec{}, fmt.Errorf("trial_offset must be >= 0 (got %d)", r.TrialOffset)
	}
	if r.MaxSteps < 0 {
		return mcbatch.Spec{}, fmt.Errorf("max_steps must be >= 0 (got %d)", r.MaxSteps)
	}
	spec := mcbatch.Spec{
		Algorithm:   alg,
		Rows:        rows,
		Cols:        cols,
		Trials:      r.Trials,
		TrialOffset: r.TrialOffset,
		Seed:        r.Seed,
		MaxSteps:    r.MaxSteps,
		ZeroOne:     r.ZeroOne,
	}
	if err := spec.CheckTrialRange(); err != nil {
		return mcbatch.Spec{}, err
	}
	return spec, nil
}
