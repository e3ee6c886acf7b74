package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/mcbatch"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/store"
	wl "repro/internal/workload"
	"repro/internal/zeroone"
)

// maxReplays bounds phase B; further samples are only verified.
const maxReplays = 24

// layers accumulates phase B: sampled requests replayed through each
// layer's public functions, one span per call. Sums are in nanoseconds.
type layers struct {
	permTrials, zeroTrials, runTrials         float64
	genNs, spanNs, shardNs, slicedNs, transNs float64
	permCmp, zeroCmp                          float64
	runW1Ns, runNs, kernelNs                  float64
	snakeStepsPerN, snakeFloorPerN            []float64
	hasUs, getUs, putUs                       []float64
	mergeNs, encodeUs, payloadBytes           []float64
	serveSelfMs                               []float64
}

// replay sends one sampled payload's spec through every layer the daemon
// used for it and checks each layer's answer against the served bytes.
// st is the daemon's own store (reopened after the daemon stopped); the
// Put goes to priv, never to st.
func (ly *layers) replay(ctx context.Context, tr *tracer, st, priv *store.Store, s sample, req int) error {
	root := tr.begin(0, req, "replay")
	defer tr.end(root)
	spec, key := s.job.spec, s.job.key
	call := func(name string, fn func()) float64 { return tr.call(root, req, name, fn) }

	var err error
	var k mcbatch.Key
	call("mcbatch.Spec.Hash", func() { k, err = spec.Hash() })
	if err != nil || k != key {
		return fmt.Errorf("%s: Spec.Hash %s, %v; want %s", s.job.body, k, err, key)
	}
	var has, ok bool
	hasNs := call("store.Has", func() { has = st.Has(key) })
	var stored []byte
	getNs := call("store.Get", func() { stored, ok, err = st.Get(key) })
	if !has || !ok || err != nil || !bytes.Equal(s.payload, stored) {
		return fmt.Errorf("%s: the store does not hold the served payload (has %v, get %v, %v)", s.job.body, has, ok, err)
	}
	ly.hasUs = append(ly.hasUs, hasNs/1e3)
	ly.getUs = append(ly.getUs, getNs/1e3)

	// The kernel layer, one trial at a time as a single mcbatch worker
	// runs it: generation into a reused buffer, then the executor.
	rows, cols, trials := spec.Rows, spec.Cols, spec.Trials
	seed, stream := mcbatch.CanonicalSeed(spec.Seed), mcbatch.DefaultStream(spec.Algorithm, rows)
	results := make([]engine.Result, trials)
	buf := grid.New(rows, cols)
	var genNs, spanNs, shardNs, slicedNs, transNs float64
	if !spec.ZeroOne {
		sch := spec.Algorithm.Schedule(rows, cols)
		pool := engine.NewShardPool(max(2, runtime.GOMAXPROCS(0)))
		defer pool.Close()
		n := rows * cols
		for i := range results {
			gen := func() { wl.RandomPermutationInto(rng.NewStream(seed, stream(i)), buf) }
			genNs += call("workload.RandomPermutationInto", gen)
			spanNs += call("engine.Run span", func() { results[i], err = engine.Run(buf, sch, engine.Options{Kernel: engine.KernelSpan}) })
			var res engine.Result
			if err == nil {
				gen()
				shardNs += call("engine.Run span-sharded", func() {
					res, err = engine.Run(buf, sch, engine.Options{Kernel: engine.KernelSpanSharded, Shards: pool.Shards(), ShardPool: pool})
				})
			}
			if err == nil && res != results[i] {
				err = fmt.Errorf("%s trial %d: sharded %+v, serial %+v", s.job.body, i, res, results[i])
			}
			if err != nil {
				return err
			}
			ly.permCmp += float64(results[i].Comparisons)
			if spec.Algorithm == core.SnakeA {
				ly.snakeStepsPerN = append(ly.snakeStepsPerN, float64(results[i].Steps)/float64(n))
				ly.snakeFloorPerN = append(ly.snakeFloorPerN, analysis.Theorem7BoundHeadline(n, rows)/float64(n))
			}
		}
		ly.permTrials += float64(trials)
	} else {
		ss, err := zeroone.CachedSliced(spec.Algorithm.ShortName(), rows, cols)
		if err != nil {
			return err
		}
		ts := zeroone.NewTrialSlice(rows, cols)
		for lo := 0; lo < trials; lo += 64 {
			hi := min(lo+64, trials)
			ts.Reset()
			for i := lo; i < hi; i++ {
				genNs += call("workload.HalfZeroOneInto", func() { wl.HalfZeroOneInto(rng.NewStream(seed, stream(i)), buf) })
				transNs += call("zeroone.TrialSlice.AddGrid", func() { ts.AddGrid(buf) })
			}
			var res []engine.Result
			var errs []error
			slicedNs += call("zeroone.SortSliced", func() { res, errs, err = zeroone.SortSliced(ts, ss, spec.MaxSteps) })
			if err != nil || errs != nil {
				return fmt.Errorf("%s: SortSliced: %v %v", s.job.body, err, errs)
			}
			copy(results[lo:hi], res)
			for _, x := range res {
				ly.zeroCmp += float64(x.Comparisons)
			}
		}
		ly.zeroTrials += float64(trials)
	}

	// The mcbatch layer: one worker, then the default pool (the same run
	// when there is one trial).
	var b1, b *mcbatch.Batch
	w1 := spec
	w1.Workers = 1
	t1 := call("mcbatch.RunCtx workers=1", func() { b1, err = mcbatch.RunCtx(ctx, w1) })
	if err != nil {
		return err
	}
	for i, t := range b1.Trials {
		if t.Steps != results[i].Steps || t.Swaps != results[i].Swaps || t.Comparisons != results[i].Comparisons {
			return fmt.Errorf("%s trial %d: RunCtx %+v, layer replay %+v", s.job.body, i, t, results[i])
		}
	}
	b, tp := b1, t1
	if trials > 1 {
		tp = call("mcbatch.RunCtx", func() { b, err = mcbatch.RunCtx(ctx, spec) })
		if err != nil {
			return err
		}
	}
	ly.runW1Ns += t1
	ly.runNs += tp
	ly.runTrials += float64(trials)
	ly.genNs += genNs
	ly.spanNs += spanNs
	ly.shardNs += shardNs
	ly.slicedNs += slicedNs
	ly.transNs += transNs
	switch b1.Kernel {
	case core.KernelSpanSharded:
		ly.kernelNs += shardNs
	case core.KernelSpan:
		ly.kernelNs += spanNs
	default:
		ly.kernelNs += transNs + slicedNs
	}

	var agg stats.Welford
	ly.mergeNs = append(ly.mergeNs, call("mcbatch.AggregateSteps", func() { agg = mcbatch.AggregateSteps(b.Trials) }))
	if agg != b.Steps {
		return fmt.Errorf("%s: AggregateSteps disagrees with the batch", s.job.body)
	}
	var payload []byte
	encNs := call("report.BuildPayload", func() { payload, err = report.BuildPayload(spec, key, b) })
	if err != nil || !bytes.Equal(s.payload, payload) {
		return fmt.Errorf("%s: served payload differs from the offline report.BuildPayload bytes (%v)", s.job.body, err)
	}
	ly.encodeUs = append(ly.encodeUs, encNs/1e3)
	ly.payloadBytes = append(ly.payloadBytes, float64(len(payload)))
	putNs := call("store.Put", func() { err = priv.Put(key, payload) })
	if err != nil {
		return err
	}
	ly.putUs = append(ly.putUs, putNs/1e3)
	// The daemon persists write-behind, after the reply, so the request's
	// own time holds only the run and the encode.
	ly.serveSelfMs = append(ly.serveSelfMs, s.latencyMs-(tp+encNs)/1e6)
	return nil
}

// metrics returns the per-layer metrics phase B measured; a layer no
// replay reached reads 0.
func (ly *layers) metrics() metrics {
	return metrics{
		"serve.self_ms_p50":                {median(ly.serveSelfMs), "ms"},
		"store.get_us_p50":                 {median(ly.getUs), "us"},
		"store.put_us_p50":                 {median(ly.putUs), "us"},
		"store.has_us_p50":                 {median(ly.hasUs), "us"},
		"mcbatch.run_ns_per_trial":         {ratio(ly.runNs, ly.runTrials), "ns"},
		"mcbatch.self_ns_per_trial":        {ratio(ly.runW1Ns-ly.genNs-ly.kernelNs, ly.runTrials), "ns"},
		"mcbatch.parallel_efficiency":      {ratio(ly.runW1Ns, ly.runNs*float64(runtime.GOMAXPROCS(0))), "ratio"},
		"stats.merge_ns":                   {mean(ly.mergeNs), "ns"},
		"workload.gen_ns_per_trial":        {ratio(ly.genNs, ly.permTrials+ly.zeroTrials), "ns"},
		"engine.span_ns_per_trial":         {ratio(ly.spanNs, ly.permTrials), "ns"},
		"engine.span_ns_per_comparator":    {ratio(ly.spanNs, ly.permCmp), "ns"},
		"engine.comparators_per_trial":     {ratio(ly.permCmp, ly.permTrials), "count"},
		"engine.steps_per_n":               {mean(ly.snakeStepsPerN), "ratio"},
		"engine.theorem7_floor_per_n":      {mean(ly.snakeFloorPerN), "ratio"},
		"engine.sharded_ns_per_trial":      {ratio(ly.shardNs, ly.permTrials), "ns"},
		"engine.sharded_vs_serial":         {ratio(ly.shardNs, ly.spanNs), "ratio"},
		"zeroone.sliced_ns_per_trial":      {ratio(ly.slicedNs, ly.zeroTrials), "ns"},
		"zeroone.sliced_ns_per_comparator": {ratio(ly.slicedNs, ly.zeroCmp), "ns"},
		"zeroone.transpose_ns_per_trial":   {ratio(ly.transNs, ly.zeroTrials), "ns"},
		"report.encode_us":                 {median(ly.encodeUs), "us"},
		"report.payload_bytes":             {mean(ly.payloadBytes), "bytes"},
	}
}
