// Command bench is the repository benchmark. It starts meshsortd in
// process (internal/serve over a durable store, default flags) behind a
// loopback listener, drives it over HTTP with one of two workloads,
// checks every result, and prints each metric by name with its unit. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Run it from the repository root through its build wrapper:
//
//	bash bench/run.sh --workload perm-cold --seed 1 --seconds 40 --trace 0
//
// bench/README.md describes the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/store"
)

// config is one invocation.
type config struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	workDir string // scratch stores and span files go under it
}

// tracePath is where a traced run writes its spans.
func (c config) tracePath() string {
	return filepath.Join(c.workDir, fmt.Sprintf("trace-%s-%d.json", c.w.name, c.seed))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric's name to its value. An untraced run measures
// the end_to_end metrics of BENCHMARK.json, a traced run the per_layer
// ones.
type metrics map[string]metric

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same requests")
	seconds := fs.Float64("seconds", 40, "length of the timed phase (at least one round always runs)")
	traceOn := fs.Int("trace", 0, "1: run untraced then traced, and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// These select or calibrate the executor, so a run under them would
	// not measure what the daemon runs by default.
	for _, v := range []string{"MESHSORT_KERNEL", "MESHSORT_TUNE", "MESHSORT_TUNE_FILE"} {
		if _, set := os.LookupEnv(v); set {
			fmt.Fprintf(stderr, "bench: refusing to run with %s set: it changes which executor runs\n", v)
			return 2
		}
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || fs.NArg() != 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "bench: usage: --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traceOn == 1, workDir: ".bench_build"}
	res, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the benchmark and returns its result; an error means the
// benchmark itself could not run.
func execute(cfg config, stdout, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	r := &runner{cfg: cfg, ctx: context.Background(), stderr: stderr, root: root}

	host, _ := json.Marshal(hostInfo()) // strings and ints always marshal
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)

	var m metrics
	if cfg.trace {
		m, err = r.traced()
	} else {
		m, err = r.untraced(stdout)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "metric %s %g %s\n", name, m[name].Value, m[name].Unit)
	}
	res := &result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
	fmt.Fprintf(stdout, "error_rate %g failed/attempted (%d/%d)\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	return res, nil
}

// untraced runs the end-to-end measurement: setup several times, the
// timed phase, the restart-and-replay phase, then the offline checks.
func (r *runner) untraced(stdout io.Writer) (metrics, error) {
	var setupS []float64
	var d *daemon
	for k := 0; k < setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var s float64
		var err error
		if d, s, err = r.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	ph := r.timedPhase(d, r.cfg.seconds, nil)
	resumeS, _, err := r.resume(d, ph)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	r.verify(ph.samples)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(stdout, "result_digest %s (round 0)\n", ph.digest())
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"trials_per_s", ph.trialsPerS}, {"setup_s", setupS}, {"resume_s", resumeS}} {
		q1, q3 := quartiles(x.xs)
		fmt.Fprintf(stdout, "spread %s q1 %g median %g q3 %g n %d\n", x.name, q1, median(x.xs), q3, len(x.xs))
	}
	if p, ok := tailPercentile(len(ph.latencyMs)); ok {
		fmt.Fprintf(stdout, "latency_tail_ms %g ms (p%g, n=%d)\n", percentile(ph.latencyMs, p), p, len(ph.latencyMs))
	}
	return metrics{
		"setup_s":        {median(setupS), "s"},
		"trials_per_s":   {median(ph.trialsPerS), "trials/s"},
		"latency_p50_ms": {percentile(ph.latencyMs, 50), "ms"},
		"peak_rss_mb":    {rss, "MiB"},
	}, nil
}

// traced runs the workload untraced and then traced for half the time
// each, from fresh setups with the same seed, then replays a sample of
// the traced phase through the layers (phase B). It returns the
// per-layer metrics and writes the spans.
func (r *runner) traced() (metrics, error) {
	d, _, err := r.setup()
	if err != nil {
		return nil, err
	}
	plain := r.timedPhase(d, r.cfg.seconds/2, nil)
	if err := d.stop(); err != nil {
		return nil, err
	}
	r.verify(plain.samples)

	tr := newTracer()
	if d, _, err = r.setup(); err != nil {
		return nil, err
	}
	before := r.scrape(d)
	ph := r.timedPhase(d, r.cfg.seconds/2, tr)
	after := r.scrape(d)
	resumeS, hitUs, err := r.resume(d, ph)
	if err != nil {
		return nil, err
	}
	samples := ph.samples
	if o := ph.outs0[0]; len(samples) == 0 && o.err == nil {
		// A short run may sample nothing; replay its first job.
		samples = []sample{{job: ph.jobs0[0], payload: o.payload, latencyMs: o.ms()}}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Phase B runs with the daemon stopped, on its reopened store.
	var st *store.Store
	openNs := tr.call(0, -1, "store.Open", func() { st, err = store.Open(d.dir) })
	if err != nil {
		return nil, err
	}
	defer st.Close()
	priv, err := store.Open(r.freshDir())
	if err != nil {
		return nil, err
	}
	defer priv.Close()
	var ly layers
	for i, s := range samples {
		if i < maxReplays {
			r.check(ly.replay(r.ctx, tr, st, priv, s, i))
		} else {
			r.check(verifyOffline(r.ctx, s.job, s.payload))
		}
	}

	delta := func(series string) float64 { return after[series] - before[series] }
	// The tracing overhead is measured on the headline metric.
	untracedRate := median(plain.trialsPerS)
	m := metrics{
		"serve.latency_p95_ms":        {percentile(ph.latencyMs, 95), "ms"},
		"serve.resume_ms":             {median(resumeS) * 1e3, "ms"},
		"serve.hit_us_p50":            {median(hitUs), "us"},
		"serve.misses":                {delta("meshsortd_cache_misses_total"), "count"},
		"serve.jobs_by_kernel.span":   {delta(`meshsortd_jobs_by_kernel_total{kernel="span"}`), "count"},
		"serve.jobs_by_kernel.sliced": {delta(`meshsortd_jobs_by_kernel_total{kernel="sliced"}`), "count"},
		"serve.response_bytes":        {ratio(float64(ph.bytes), float64(ph.requests)), "bytes"},
		"store.open_ms":               {openNs / 1e6, "ms"},
		"store.entries":               {after["meshsortd_store_entries"], "count"},
		"store.log_bytes":             {after["meshsortd_store_log_bytes"], "bytes"},
		"trace.overhead_frac":         {ratio(untracedRate-median(ph.trialsPerS), untracedRate), "ratio"},
	}
	for k, v := range ly.metrics() {
		m[k] = v
	}
	return m, tr.write(r.cfg.tracePath(), r.cfg.w.name, r.cfg.seed)
}

// scrape reads the daemon's /metrics; a failure counts as a failed check.
func (r *runner) scrape(d *daemon) map[string]float64 {
	m, err := d.scrape()
	r.check(err)
	return m
}

// host describes the machine a run measured.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
