package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/report"
)

// checkPayload checks a served result against its request: the content
// address must be the request's Spec.Hash(), steps.n its trial count, and
// for snake-a on permutations the mean steps per cell at least the
// Theorem 7 floor N/2 − √N/2 − 4 over N.
func checkPayload(payload []byte, j *job) error {
	var p report.ResultPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return fmt.Errorf("%s: undecodable payload: %v", j.body, err)
	}
	if p.Key != j.key.String() {
		return fmt.Errorf("%s: key %s, want %s", j.body, p.Key, j.key)
	}
	if p.Steps.N != int64(j.spec.Trials) {
		return fmt.Errorf("%s: steps.n %d, want %d", j.body, p.Steps.N, j.spec.Trials)
	}
	if j.spec.Algorithm == core.SnakeA && !j.spec.ZeroOne {
		n := j.spec.Rows * j.spec.Cols
		floor := analysis.Theorem7BoundHeadline(n, j.spec.Rows) / float64(n)
		if got := p.Steps.Mean / float64(n); got < floor {
			return fmt.Errorf("%s: steps/N %.4f below the Theorem 7 floor %.4f", j.body, got, floor)
		}
	}
	return nil
}

// verifyOffline checks one sampled cold payload against its offline
// recomputation through mcbatch.RunCtx and report.BuildPayload, the
// daemon's own path without the daemon.
func verifyOffline(ctx context.Context, j *job, served []byte) error {
	b, err := mcbatch.RunCtx(ctx, j.spec)
	var offline []byte
	if err == nil {
		offline, err = report.BuildPayload(j.spec, j.key, b)
	}
	if err != nil {
		return fmt.Errorf("%s: offline run: %w", j.body, err)
	}
	if !bytes.Equal(served, offline) {
		return fmt.Errorf("%s: served payload differs from the offline mcbatch.RunCtx+report.BuildPayload bytes", j.body)
	}
	return nil
}
