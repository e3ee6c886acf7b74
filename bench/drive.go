package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// An untraced run sets up this many times; setup_s is the median and
	// the last setup serves the timed phase. The count is fixed, not a time
	// budget: the first setups of a process, while its heap is small, take
	// up to twice as long (the GC runs more often), so a budget would give
	// a slower host fewer of the later ones and a higher median.
	setups = 40
	// The resume phase restarts the daemon at least resumeMin and at most
	// resumeMax times, until resumeBudget has passed.
	resumeMin    = 3
	resumeMax    = 50
	resumeBudget = 500 * time.Millisecond
)

// runner carries one invocation's state. Only its own goroutine touches
// the counters; client goroutines report through outcomes.
type runner struct {
	cfg       config
	ctx       context.Context
	stderr    io.Writer
	root      string // the run's scratch directory
	dirs      int    // stores created so far
	attempted int
	failed    int
}

// check counts one correctness check and reports a failure.
func (r *runner) check(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(r.stderr, "bench: FAIL", err)
		return false
	}
	return true
}

// freshDir names a new store directory inside the run's scratch directory.
func (r *runner) freshDir() string {
	r.dirs++
	return filepath.Join(r.root, fmt.Sprintf("store-%d", r.dirs))
}

// setup starts a daemon on a fresh store and sends the warm-up jobs. It
// returns the daemon and the seconds setup took.
func (r *runner) setup() (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(r.freshDir())
	if err != nil {
		return nil, 0, err
	}
	for _, o := range r.runJobs(d, r.cfg.w.warmup(), nil, 0, 0) {
		if o.err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

// outcome is one job as the client saw it.
type outcome struct {
	start, end time.Time
	cached     bool   // answered X-Meshsort-Cache: hit
	payload    []byte // the response body
	err        error
}

func (o outcome) ms() float64 { return float64(o.end.Sub(o.start).Nanoseconds()) / 1e6 }

// runJobs sends jobs over the client connections, each sending its next
// request only after the previous reply (a closed loop), and returns the
// outcomes in job order. With a tracer each request is a span under parent.
func (r *runner) runJobs(d *daemon, jobs []*job, tr *tracer, parent, reqBase int) []outcome {
	outs := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				id := tr.begin(parent, reqBase+i, "POST /v1/sort")
				outs[i] = doJob(d, jobs[i])
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	return outs
}

// doJob sends one job and checks what came back.
func doJob(d *daemon, j *job) (o outcome) {
	o.start = time.Now()
	defer func() { o.end = time.Now() }()
	resp, err := d.do(http.MethodPost, "/v1/sort", j.body)
	o.cached, o.payload = resp.cache == "hit", resp.body
	switch {
	case err != nil:
		o.err = err
	case resp.status != http.StatusOK:
		o.err = fmt.Errorf("%s: status %d: %s", j.body, resp.status, resp.body)
	default:
		o.err = checkPayload(resp.body, j)
	}
	return o
}

// sample is a cold payload in the seeded 1-in-8 sample.
type sample struct {
	job       *job
	payload   []byte
	latencyMs float64
}

// phase is what one timed phase measured.
type phase struct {
	// Per round: trials delivered over its wall time.
	trialsPerS []float64
	// Per request: latency in milliseconds.
	latencyMs []float64
	// Round 0, kept for the digest and the resume replays.
	jobs0 []*job
	outs0 []outcome
	// samples are the sampled cold payloads, in request order.
	samples []sample
	// requests and bytes count HTTP exchanges and response bytes.
	requests, bytes int
}

// timedPhase runs rounds until seconds have passed (always at least
// one), checking every response.
func (r *runner) timedPhase(d *daemon, seconds float64, tr *tracer) *phase {
	ph := &phase{}
	start := time.Now()
	reqBase := 0
	for rd := 0; rd == 0 || time.Since(start).Seconds() < seconds; rd++ {
		jobs := r.cfg.w.round(r.cfg.seed, rd)
		id := tr.begin(0, -1, fmt.Sprintf("round %d", rd))
		t0 := time.Now()
		outs := r.runJobs(d, jobs, tr, id, reqBase)
		wall := time.Since(t0).Seconds()
		tr.end(id)
		reqBase += len(jobs)

		var trials int
		for i, o := range outs {
			j := jobs[i]
			ph.requests++
			ph.bytes += len(o.payload)
			if !r.check(o.err) {
				continue
			}
			trials += j.spec.Trials
			ph.latencyMs = append(ph.latencyMs, o.ms())
			if sampled(j.key) {
				ph.samples = append(ph.samples, sample{job: j, payload: o.payload, latencyMs: o.ms()})
			}
		}
		ph.trialsPerS = append(ph.trialsPerS, float64(trials)/wall)
		if rd == 0 {
			ph.jobs0, ph.outs0 = jobs, outs
		}
	}
	return ph
}

// resume restarts the daemon on its store and replays round 0, whose
// results must come back byte-identical as store hits, without
// recomputation. It returns the seconds each
// restart-and-replay took and the hits' round trips in microseconds.
func (r *runner) resume(d *daemon, ph *phase) (times, hitUs []float64, err error) {
	deadline := time.Now().Add(resumeBudget)
	for n := 0; n < resumeMin || (n < resumeMax && time.Now().Before(deadline)); n++ {
		t0 := time.Now()
		if err := d.restart(); err != nil {
			return nil, nil, err
		}
		outs := r.runJobs(d, ph.jobs0, nil, 0, 0)
		times = append(times, time.Since(t0).Seconds())
		for i, o := range outs {
			err := o.err
			switch {
			case err != nil:
			case !bytes.Equal(o.payload, ph.outs0[i].payload):
				err = fmt.Errorf("resume: round-0 job %d came back with different bytes after a restart", i)
			case !o.cached:
				err = fmt.Errorf("resume: round-0 job %d was recomputed after a restart", i)
			default:
				hitUs = append(hitUs, o.ms()*1e3)
			}
			r.check(err)
		}
	}
	return times, hitUs, nil
}

// verify recomputes samples offline and compares bytes.
func (r *runner) verify(samples []sample) {
	for _, s := range samples {
		r.check(verifyOffline(r.ctx, s.job, s.payload))
	}
}

// digest is the sha256 over every payload of round 0 in request order,
// the same on every run with the same seed.
func (ph *phase) digest() string {
	h := sha256.New()
	for _, o := range ph.outs0 {
		h.Write(o.payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
