package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/mcbatch"
	"repro/internal/report"
	"repro/internal/serve"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are those of Python's statistics.median and
	// statistics.quantiles(xs, n=4), by which run-to-run spreads are judged.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
		name      string
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, "odd"},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, "even"},
		{[]float64{1, 3}, 0.5, 2, 3.5, "two values extrapolate"},
		{[]float64{7}, 7, 7, 7, "one value"},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("%s: quartiles %v %v %v, want %v %v %v", c.name, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0, false}, {20, 50, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestSelfTimesMergeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps span 2
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // outlives its parent
		{ID: 5, Parent: 2, StartNs: 15, EndNs: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

// small is w cut down for tests: its smallest side, 64 trials.
func small(w *workload) *workload {
	s := *w
	s.sides, s.trials = s.sides[:1], []int{64}
	return &s
}

// roundBodies renders a run's first rounds as the request bodies the
// daemon would see.
func roundBodies(w *workload, seed uint64) string {
	var b strings.Builder
	for r := 0; r < 3; r++ {
		for _, j := range small(w).round(seed, r) {
			b.Write(j.body)
		}
	}
	return b.String()
}

func TestRequestListIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := roundBodies(w, 1), roundBodies(w, 1), roundBodies(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two different request lists", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
	}
}

func TestCheckerRejectsTamperedPayloads(t *testing.T) {
	ctx := context.Background()
	j := newJob(serve.JobRequest{Algorithm: "snake-a", Side: 16, Trials: 8, Seed: 3})
	b, err := mcbatch.RunCtx(ctx, j.spec)
	if err != nil {
		t.Fatal(err)
	}
	good, err := report.BuildPayload(j.spec, j.key, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPayload(good, j); err != nil {
		t.Fatalf("genuine payload rejected: %v", err)
	}
	if err := verifyOffline(ctx, j, good); err != nil {
		t.Fatalf("genuine payload failed the offline check: %v", err)
	}
	// tamper re-encodes the genuine payload after edit changes one field.
	tamper := func(edit func(p, steps map[string]any)) []byte {
		var p map[string]any
		if err := json.Unmarshal(good, &p); err != nil {
			t.Fatal(err)
		}
		edit(p, p["steps"].(map[string]any))
		out, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}
	// Every tampering fails the offline comparison; the structural ones
	// already fail the check run on each response.
	for name, c := range map[string]struct {
		bad        []byte
		structural bool
	}{
		"key":         {tamper(func(p, _ map[string]any) { p["key"] = strings.Repeat("0", 64) }), true},
		"trial count": {tamper(func(_, steps map[string]any) { steps["n"] = 7 }), true},
		"below floor": {tamper(func(_, steps map[string]any) { steps["mean"] = 1 }), true},
		"one digit":   {bytes.Replace(good, []byte(`"variance": `), []byte(`"variance": 1`), 1), false},
	} {
		if c.structural && checkPayload(c.bad, j) == nil {
			t.Errorf("tampered %s: checkPayload accepted it", name)
		}
		if verifyOffline(ctx, j, c.bad) == nil {
			t.Errorf("tampered %s: the offline comparison accepted it", name)
		}
	}
}

func TestRefusesExecutorOverrides(t *testing.T) {
	for _, v := range []string{"MESHSORT_KERNEL", "MESHSORT_TUNE", "MESHSORT_TUNE_FILE"} {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "span")
			var out, errs bytes.Buffer
			if code := run([]string{"--workload", "perm-cold"}, &out, &errs); code != 2 || out.Len() != 0 {
				t.Errorf("exit %d, stdout %q; want 2 and nothing", code, out.String())
			}
		})
	}
}

// TestSmoke runs every workload, untraced and traced, at a small scale
// with one round each. Each run must pass every check and print exactly
// the metrics BENCHMARK.json lists for its mode, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program %q", got, want)
	}
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := config{w: small(w), seed: 1, trace: traced, workDir: dir}
			var out, errs bytes.Buffer
			res, err := execute(cfg, &out, &errs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, errs.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed:\n%s", w.name, traced, res.Failed, res.Attempted, errs.String())
			}
			listed := b.EndToEnd
			if traced {
				listed = b.PerLayer
				if _, err := os.Stat(cfg.tracePath()); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(listed))
			}
			for _, l := range listed {
				m, ok := res.Metrics[l.Name]
				if !ok || m.Unit != l.Unit || !strings.Contains(out.String(), fmt.Sprintf("metric %s %g %s\n", l.Name, m.Value, l.Unit)) {
					t.Errorf("%s traced=%v: metric %s (%s) not printed", w.name, traced, l.Name, l.Unit)
				}
			}
			if !strings.Contains(out.String(), "error_rate 0 failed/attempted") {
				t.Errorf("%s traced=%v: error_rate is not 0", w.name, traced)
			}
		}
	}
	t.Logf("all workloads, untraced and traced, in %v", time.Since(start))
}
