package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/report"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}

// metricValue scrapes one un-labelled series from /metrics.
func metricValue(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, buf := getBody(t, baseURL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, buf)
	return 0
}

// TestJobLifecycle drives the full asynchronous path — submit, poll until
// done, fetch the result — and checks the payload against a direct
// mcbatch run of the same Spec, and the status against the kernel that
// serves permutation jobs.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"algorithm":"snake-a","side":8,"trials":40,"seed":11}`

	resp, buf := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, buf)
	}
	var sub submitResponse
	if err := json.Unmarshal(buf, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Key == "" {
		t.Fatalf("submit response missing id/key: %s", buf)
	}

	// Long-poll until terminal.
	deadline := time.Now().Add(30 * time.Second)
	var st statusResponse
	for {
		resp, buf = getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, buf)
		}
		if err := json.Unmarshal(buf, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" || st.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.Status)
		}
	}
	if st.Status != "done" {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Kernel != "span" {
		t.Fatalf("status reports kernel %q, want span", st.Kernel)
	}

	resp, buf = getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, buf)
	}
	var payload report.ResultPayload
	if err := json.Unmarshal(buf, &payload); err != nil {
		t.Fatal(err)
	}

	spec := mcbatch.Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 40, Seed: 11}
	want, err := mcbatch.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if payload.Steps.Mean != want.Steps.Mean() || payload.Steps.Variance != want.Steps.Variance() {
		t.Fatalf("served stats diverge from direct run: got mean=%v var=%v, want mean=%v var=%v",
			payload.Steps.Mean, payload.Steps.Variance, want.Steps.Mean(), want.Steps.Variance())
	}
	if key, _ := spec.Hash(); payload.Key != key.String() {
		t.Fatalf("payload key %s != spec hash %s", payload.Key, key)
	}
	if payload.Spec.Seed != 11 || payload.Spec.Algorithm != "snake-a" {
		t.Fatalf("payload spec echo wrong: %+v", payload.Spec)
	}
	for _, hint := range []string{`"kernel"`, `"workers"`, `"shards"`} {
		if bytes.Contains(buf, []byte(hint)) {
			t.Fatalf("payload echoes execution hint %s:\n%s", hint, buf)
		}
	}
}

// TestCacheHitDeterminism submits the same Spec twice through the
// synchronous endpoint: the second response must be served from the cache
// (header + counter) and be byte-identical to the first.
func TestCacheHitDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"algorithm":"rm-cf","rows":6,"cols":10,"trials":25,"seed":3}`

	resp1, buf1 := postJSON(t, ts.URL+"/v1/sort", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first sort: %d %s", resp1.StatusCode, buf1)
	}
	if got := resp1.Header.Get("X-Meshsort-Cache"); got != "miss" {
		t.Fatalf("first submission cache header: %q, want miss", got)
	}
	hitsBefore := metricValue(t, ts.URL, `meshsortd_cache_hits_total{layer="memory"}`)

	resp2, buf2 := postJSON(t, ts.URL+"/v1/sort", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second sort: %d %s", resp2.StatusCode, buf2)
	}
	if got := resp2.Header.Get("X-Meshsort-Cache"); got != "hit" {
		t.Fatalf("second submission cache header: %q, want hit", got)
	}
	if !bytes.Equal(buf1, buf2) {
		t.Fatalf("cache hit is not byte-identical:\n%s\nvs\n%s", buf1, buf2)
	}
	if hitsAfter := metricValue(t, ts.URL, `meshsortd_cache_hits_total{layer="memory"}`); hitsAfter != hitsBefore+1 {
		t.Fatalf("cache_hits_total{layer=memory}: %v -> %v, want +1", hitsBefore, hitsAfter)
	}

	// A different seed must be a different key and a different payload.
	resp3, buf3 := postJSON(t, ts.URL+"/v1/sort",
		`{"algorithm":"rm-cf","rows":6,"cols":10,"trials":25,"seed":4}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("third sort: %d %s", resp3.StatusCode, buf3)
	}
	if resp3.Header.Get("X-Meshsort-Cache") != "miss" {
		t.Fatal("distinct seed served from cache")
	}
	if bytes.Equal(buf1, buf3) {
		t.Fatal("distinct seeds returned identical payloads")
	}
}

// TestQueueFullBackpressure holds the single worker on the test gate and
// fills the depth-1 queue: the third submission must get 429.
func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1, testGate: gate})
	defer close(gate)

	mk := func(seed int) string {
		return fmt.Sprintf(`{"algorithm":"snake-a","side":8,"trials":8,"seed":%d}`, seed)
	}
	resp, buf := postJSON(t, ts.URL+"/v1/jobs", mk(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", resp.StatusCode, buf)
	}
	var sub submitResponse
	if err := json.Unmarshal(buf, &sub); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has taken job 1 off the queue (state running):
	// from then on the queue depth is deterministic.
	for {
		job, ok := s.jobByID(sub.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if st, _, _ := job.Snapshot(); st == JobRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if resp, buf = postJSON(t, ts.URL+"/v1/jobs", mk(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 should queue: %d %s", resp.StatusCode, buf)
	}
	resp, buf = postJSON(t, ts.URL+"/v1/jobs", mk(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: got %d %s, want 429", resp.StatusCode, buf)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if got := metricValue(t, ts.URL, "meshsortd_jobs_rejected_total"); got != 1 {
		t.Fatalf("jobs_rejected_total = %v, want 1", got)
	}
	if depth := metricValue(t, ts.URL, "meshsortd_queue_depth"); depth != 1 {
		t.Fatalf("queue_depth = %v, want 1", depth)
	}
}

// TestSingleflightDedup submits an identical Spec while the first copy is
// still held on the gate: the second submission must attach to the same
// job instead of executing twice.
func TestSingleflightDedup(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4, testGate: gate})

	body := `{"algorithm":"snake-b","side":8,"trials":16,"seed":5}`
	_, buf1 := postJSON(t, ts.URL+"/v1/jobs", body)
	var sub1, sub2 submitResponse
	if err := json.Unmarshal(buf1, &sub1); err != nil {
		t.Fatal(err)
	}
	resp2, buf2 := postJSON(t, ts.URL+"/v1/jobs", body)
	if err := json.Unmarshal(buf2, &sub2); err != nil {
		t.Fatal(err)
	}
	if !sub2.Deduped || resp2.Header.Get("X-Meshsort-Dedup") != "1" {
		t.Fatalf("second submission not deduped: %s", buf2)
	}
	if sub1.ID != sub2.ID {
		t.Fatalf("dedup returned a different job: %s vs %s", sub1.ID, sub2.ID)
	}
	close(gate)
	resp, buf := getBody(t, ts.URL+"/v1/jobs/"+sub1.ID+"?wait=1")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(buf), `"done"`) {
		t.Fatalf("deduped job did not finish: %d %s", resp.StatusCode, buf)
	}
	if got := metricValue(t, ts.URL, "meshsortd_jobs_deduped_total"); got != 1 {
		t.Fatalf("jobs_deduped_total = %v, want 1", got)
	}
}

// TestGracefulDrain holds a job on the gate, starts a drain, verifies new
// submissions get 503 while the old job keeps running, then releases the
// gate and checks the drained job's result is still served.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4, testGate: gate})

	_, buf := postJSON(t, ts.URL+"/v1/jobs", `{"algorithm":"snake-c","side":8,"trials":12,"seed":9}`)
	var sub submitResponse
	if err := json.Unmarshal(buf, &sub); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain sets the draining flag before blocking, but do not rely on
	// goroutine scheduling: poll until submissions are rejected.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"algorithm":"snake-a","side":8,"trials":4,"seed":1}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions were not rejected during drain")
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain finished with a job still gated: %v", err)
	default:
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight job's result survived the drain.
	resp, buf := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after drain: %d %s", resp.StatusCode, buf)
	}
	var payload report.ResultPayload
	if err := json.Unmarshal(buf, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Steps.N != 12 {
		t.Fatalf("drained job lost trials: n=%d", payload.Steps.N)
	}
}

// TestZeroOneJob runs a trial-sliced 0-1 batch through the API.
func TestZeroOneJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, buf := postJSON(t, ts.URL+"/v1/sort",
		`{"algorithm":"snake-a","side":8,"trials":10,"seed":2,"zeroone":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zeroone sort: %d %s", resp.StatusCode, buf)
	}
	var payload report.ResultPayload
	if err := json.Unmarshal(buf, &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Spec.ZeroOne || payload.Steps.N != 10 {
		t.Fatalf("zeroone payload wrong: %+v", payload.Spec)
	}
}

// TestRequestValidation covers the 4xx surface.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: Limits{MaxTrials: 100, MaxCells: 1024}})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"unknown-algorithm", `{"algorithm":"bogo","side":8,"trials":4}`, 400},
		{"unknown-kernel", `{"algorithm":"snake-a","side":8,"trials":4,"kernel":"gpu"}`, 400},
		{"no-trials", `{"algorithm":"snake-a","side":8}`, 400},
		{"too-many-trials", `{"algorithm":"snake-a","side":8,"trials":101}`, 400},
		{"too-big-mesh", `{"algorithm":"snake-a","side":64,"trials":4}`, 400},
		{"side-and-rows", `{"algorithm":"snake-a","side":8,"rows":8,"cols":8,"trials":4}`, 400},
		{"zero-mesh", `{"algorithm":"snake-a","trials":4}`, 400},
		{"unknown-field", `{"algorithm":"snake-a","side":8,"trials":4,"sidd":9}`, 400},
		{"bad-json", `{`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, buf := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("got %d %s, want %d", resp.StatusCode, buf, tc.wantStatus)
			}
		})
	}

	if resp, _ := getBody(t, ts.URL+"/v1/jobs/j-999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job id: %d, want 404", resp.StatusCode)
	}
}

// TestFailedJob submits a job whose step cap cannot be met (one step on a
// random permutation) and expects a clean failure surface.
func TestFailedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, buf := postJSON(t, ts.URL+"/v1/sort",
		`{"algorithm":"snake-a","side":8,"trials":4,"seed":1,"max_steps":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("capped sort: got %d %s, want 422", resp.StatusCode, buf)
	}
	if !strings.Contains(string(buf), "did not sort within") {
		t.Fatalf("failure body lacks the step-limit error: %s", buf)
	}
	// The failure is not cached: resubmitting executes again and fails
	// again rather than serving a poisoned cache entry.
	resp, _ = postJSON(t, ts.URL+"/v1/sort",
		`{"algorithm":"snake-a","side":8,"trials":4,"seed":1,"max_steps":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("resubmitted capped sort: got %d, want 422", resp.StatusCode)
	}
	if resp.Header.Get("X-Meshsort-Cache") == "hit" {
		t.Fatal("failed job must not populate the result cache")
	}
}

// TestHealthzAndAlgorithms smoke-tests the small endpoints.
func TestHealthzAndAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, buf := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(buf) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, buf)
	}
	resp, buf = getBody(t, ts.URL+"/v1/algorithms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("algorithms: %d", resp.StatusCode)
	}
	var algs []algorithmInfo
	if err := json.Unmarshal(buf, &algs); err != nil {
		t.Fatal(err)
	}
	if len(algs) != 6 || algs[0].Name != "rm-rf" {
		t.Fatalf("algorithms list wrong: %+v", algs)
	}
}

// TestRegistryEviction bounds the registry: after many finished jobs the
// oldest ids are forgotten while the newest stay pollable.
func TestRegistryEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 3})
	ids := make([]string, 0, 6)
	for seed := 1; seed <= 6; seed++ {
		body := fmt.Sprintf(`{"algorithm":"snake-a","side":4,"trials":2,"seed":%d}`, seed)
		resp, buf := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, buf)
		}
		var sub submitResponse
		if err := json.Unmarshal(buf, &sub); err != nil {
			t.Fatal(err)
		}
		// Wait for completion so eviction sees terminal jobs.
		if resp, buf := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=1"); !strings.Contains(string(buf), `"done"`) {
			t.Fatalf("job %s did not finish: %d %s", sub.ID, resp.StatusCode, buf)
		}
		ids = append(ids, sub.ID)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job should be evicted, got %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+ids[5]); resp.StatusCode != http.StatusOK {
		t.Fatalf("newest job should survive, got %d", resp.StatusCode)
	}
}

// TestEvictionPassesOverLiveJob: a live job at the head of the registry
// does not shield the finished jobs behind it. With MaxJobs 2, job A runs
// to done, job B is held running by the gate, and 20 /v1/jobs cache hits
// on A follow; eviction passes over B and drops the oldest finished jobs,
// so the registry stays within MaxJobs plus its one live job, and both B
// and the newest hit stay pollable.
func TestEvictionPassesOverLiveJob(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	_, ts := newTestServer(t, Config{MaxJobs: 2, Concurrency: 1, QueueDepth: 4, testGate: gate})
	submit := func(body string) submitResponse {
		t.Helper()
		resp, buf := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, buf)
		}
		var sub submitResponse
		if err := json.Unmarshal(buf, &sub); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	bodyA := `{"algorithm":"snake-a","side":4,"trials":2,"seed":1}`
	a := submit(bodyA)
	gate <- struct{}{} // let A, and only A, through the gate
	if resp, buf := getBody(t, ts.URL+"/v1/jobs/"+a.ID+"?wait=1"); !strings.Contains(string(buf), `"done"`) {
		t.Fatalf("job A %s did not finish: %d %s", a.ID, resp.StatusCode, buf)
	}
	b := submit(`{"algorithm":"snake-b","side":4,"trials":2,"seed":1}`)

	var newest submitResponse
	for i := 0; i < 20; i++ {
		newest = submit(bodyA)
		if v := metricValue(t, ts.URL, "meshsortd_jobs_registered"); v > 3 {
			t.Fatalf("after %d hits on A: jobs_registered = %v, want at most MaxJobs + 1 live = 3", i+1, v)
		}
	}
	if resp, buf := getBody(t, ts.URL+"/v1/jobs/"+b.ID); resp.StatusCode != http.StatusOK || strings.Contains(string(buf), `"done"`) {
		t.Fatalf("live job B %s: %d %s, want it registered and not done", b.ID, resp.StatusCode, buf)
	}
	if resp, buf := getBody(t, ts.URL+"/v1/jobs/"+newest.ID+"/result"); resp.StatusCode != http.StatusOK {
		t.Fatalf("newest hit %s: %d %s", newest.ID, resp.StatusCode, buf)
	}
	release()
	if resp, buf := getBody(t, ts.URL+"/v1/jobs/"+b.ID+"?wait=1"); !strings.Contains(string(buf), `"done"`) {
		t.Fatalf("job B %s did not finish: %d %s", b.ID, resp.StatusCode, buf)
	}
}

// TestSortTrafficKeepsAsyncResults: /v1/sort replies carry no job ID, so
// sort misses and hits stay out of the registry, and more of them than
// MaxJobs do not evict a finished /v1/jobs result before its client
// collects it.
func TestSortTrafficKeepsAsyncResults(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 3})
	resp, buf := postJSON(t, ts.URL+"/v1/jobs", `{"algorithm":"snake-a","side":4,"trials":2,"seed":100}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, buf)
	}
	var sub submitResponse
	if err := json.Unmarshal(buf, &sub); err != nil {
		t.Fatal(err)
	}
	if resp, buf := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=1"); !strings.Contains(string(buf), `"done"`) {
		t.Fatalf("job %s did not finish: %d %s", sub.ID, resp.StatusCode, buf)
	}
	resp, want := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, want)
	}

	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"algorithm":"snake-b","side":4,"trials":2,"seed":%d}`, seed)
		for _, cache := range []string{"miss", "hit"} {
			resp, buf := postJSON(t, ts.URL+"/v1/sort", body)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Meshsort-Cache") != cache {
				t.Fatalf("sort seed %d: %d cache %q, want 200 cache %q: %s",
					seed, resp.StatusCode, resp.Header.Get("X-Meshsort-Cache"), cache, buf)
			}
		}
	}

	resp, got := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after sort traffic: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result changed under sort traffic:\n%s\nvs\n%s", got, want)
	}
}

// TestSortJobsLeaveNoRegistryEntry: a /v1/sort miss, a memory hit and,
// after a restart on the same store, a store hit all leave the registry
// empty.
func TestSortJobsLeaveNoRegistryEntry(t *testing.T) {
	dir := t.TempDir()
	body := `{"algorithm":"snake-c","side":4,"trials":3,"seed":2}`
	sortAs := func(baseURL, cache string) {
		t.Helper()
		resp, buf := postJSON(t, baseURL+"/v1/sort", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Meshsort-Cache") != cache {
			t.Fatalf("sort: %d cache %q, want 200 cache %q: %s",
				resp.StatusCode, resp.Header.Get("X-Meshsort-Cache"), cache, buf)
		}
		if v := metricValue(t, baseURL, "meshsortd_jobs_registered"); v != 0 {
			t.Fatalf("jobs_registered = %v after a %s, want 0", v, cache)
		}
	}

	stA := openTestStore(t, dir)
	sA, tsA := storedServer(stA, Config{})
	sortAs(tsA.URL, "miss")
	sortAs(tsA.URL, "hit")
	tsA.Close()
	sA.Close()
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	stB := openTestStore(t, dir)
	defer stB.Close()
	sB, tsB := storedServer(stB, Config{})
	defer func() { tsB.Close(); sB.Close() }()
	sortAs(tsB.URL, "hit")
	if v := metricValue(t, tsB.URL, `meshsortd_cache_hits_total{layer="store"}`); v != 1 {
		t.Fatalf(`cache_hits_total{layer="store"} = %v, want 1`, v)
	}
}

// TestAsyncDedupOntoSortJob: a /v1/jobs submission that dedups onto an
// in-flight /v1/sort job registers that job once, so the ID it hands out
// polls to done and serves the sort's payload.
func TestAsyncDedupOntoSortJob(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	_, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4, testGate: gate})
	body := `{"algorithm":"rm-rf","side":6,"trials":9,"seed":4}`

	type reply struct {
		status int
		buf    []byte
		err    error
	}
	sorted := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sort", "application/json", strings.NewReader(body))
		if err != nil {
			sorted <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		sorted <- reply{resp.StatusCode, buf, err}
	}()
	// The sort job is in flight, held by the gate, once its miss counts.
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, ts.URL, "meshsortd_cache_misses_total") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the sort never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	var subs [2]submitResponse
	for i := range subs {
		resp, buf := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, buf)
		}
		if err := json.Unmarshal(buf, &subs[i]); err != nil {
			t.Fatal(err)
		}
		if !subs[i].Deduped || subs[i].ID == "" {
			t.Fatalf("submit %d not deduped onto the sort job: %s", i, buf)
		}
	}
	if subs[0].ID != subs[1].ID {
		t.Fatalf("dedups got different ids: %s vs %s", subs[0].ID, subs[1].ID)
	}
	if v := metricValue(t, ts.URL, "meshsortd_jobs_registered"); v != 1 {
		t.Fatalf("jobs_registered = %v, want 1", v)
	}

	release()
	r := <-sorted
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("sort: %d %v %s", r.status, r.err, r.buf)
	}
	if resp, buf := getBody(t, ts.URL+"/v1/jobs/"+subs[0].ID+"?wait=1"); !strings.Contains(string(buf), `"done"`) {
		t.Fatalf("job %s did not finish: %d %s", subs[0].ID, resp.StatusCode, buf)
	}
	resp, got := getBody(t, ts.URL+"/v1/jobs/"+subs[0].ID+"/result")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, r.buf) {
		t.Fatalf("result %d differs from the sort reply:\n%s\nvs\n%s", resp.StatusCode, got, r.buf)
	}
}

// TestJobTimeoutCancellation gives a job a timeout it cannot meet and
// checks it fails with a canceled classification instead of hanging.
func TestJobTimeoutCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTimeout: time.Millisecond})
	resp, buf := postJSON(t, ts.URL+"/v1/sort",
		`{"algorithm":"snake-a","side":32,"trials":2000,"seed":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("timed-out job: got %d %s, want 422", resp.StatusCode, buf)
	}
	if !strings.Contains(string(buf), "context deadline exceeded") {
		t.Fatalf("timeout not surfaced: %s", buf)
	}
	if got := metricValue(t, ts.URL, `meshsortd_jobs_completed_total{status="canceled"}`); got != 1 {
		t.Fatalf("canceled counter = %v, want 1", got)
	}
}

// checkKernelSharesCacheEntry submits body twice through /v1/sort: the
// first run executes on kernel (one more job under its by-kernel
// series), and the second is a cache hit with a byte-identical payload
// that executes nothing.
func checkKernelSharesCacheEntry(t *testing.T, body, kernel string) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	series := fmt.Sprintf("meshsortd_jobs_by_kernel_total{kernel=%q}", kernel)
	before := metricValue(t, ts.URL, series)
	resp, first := postJSON(t, ts.URL+"/v1/sort", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first sort: %d %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Meshsort-Cache"); got != "miss" {
		t.Fatalf("first cache header: %q, want miss", got)
	}
	if got := metricValue(t, ts.URL, series); got != before+1 {
		t.Fatalf("%s: %v -> %v, want +1", series, before, got)
	}
	resp, again := postJSON(t, ts.URL+"/v1/sort", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, again)
	}
	if got := resp.Header.Get("X-Meshsort-Cache"); got != "hit" {
		t.Fatalf("resubmit cache header: %q, want hit", got)
	}
	if !bytes.Equal(again, first) {
		t.Fatalf("cached payload differs:\n%s\nvs\n%s", again, first)
	}
	if got := metricValue(t, ts.URL, series); got != before+1 {
		t.Fatalf("%s after the hit: %v, want %v", series, got, before+1)
	}
}

// TestZeroOneKernelSharesCacheEntry pins that a 0-1 job runs on the
// trial-sliced kernel and that its resubmission is served from the
// cache. That no execution hint enters the key is mcbatch's hash tests'
// to pin, for every Spec.Kernel value.
func TestZeroOneKernelSharesCacheEntry(t *testing.T) {
	checkKernelSharesCacheEntry(t, `{"algorithm":"snake-b","side":8,"trials":70,"seed":9,"zeroone":true}`, "sliced")
}

// TestPermutationKernelSharesCacheEntry is the permutation-class twin:
// the job runs on the span kernel and its resubmission is a cache hit.
func TestPermutationKernelSharesCacheEntry(t *testing.T) {
	checkKernelSharesCacheEntry(t, `{"algorithm":"snake-a","side":8,"trials":40,"seed":9}`, "span")
}

// TestRetiredKernelNamesRejected pins the wire effect of retiring the
// kernel and shards request fields: the daemon decodes job requests
// strictly, so a request that still names a kernel — one that once ran,
// one that left earlier, or the empty name — or sends a shard count is a
// 400 naming the unknown field at every job entry point.
func TestRetiredKernelNamesRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, field := range []string{
		`"kernel":"span"`, `"kernel":"span-sharded"`, `"kernel":"packed"`, `"kernel":""`,
		`"shards":2`, `"shards":0`,
	} {
		for _, path := range []string{"/v1/jobs", "/v1/sort"} {
			body := fmt.Sprintf(`{"algorithm":"snake-a","side":8,"trials":4,%s}`, field)
			resp, buf := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with %s: got %d %s, want 400", path, field, resp.StatusCode, buf)
			}
			if !strings.Contains(string(buf), "unknown field") {
				t.Fatalf("%s with %s: message does not name the unknown field: %s", path, field, buf)
			}
		}
	}
}

// TestKernelLabelsFollowRegistry pins the by-kernel series: the two
// served kernels, then "fabric" and "other".
func TestKernelLabelsFollowRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, buf := getBody(t, ts.URL+"/metrics")
	const prefix = `meshsortd_jobs_by_kernel_total{kernel="`
	var got []string
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			got = append(got, rest[:strings.IndexByte(rest, '"')])
		}
	}
	want := []string{"span", "sliced", "fabric", "other"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("by-kernel labels %v, want %v", got, want)
	}
}

// TestMeshLimitsDoNotOverflow sends sides whose product wraps around a
// 64-bit int (2^32 · 2^32 = 0) to every entry point that bounds the
// mesh size: each must refuse them with 400 instead of admitting a
// 2^64-cell mesh.
func TestMeshLimitsDoNotOverflow(t *testing.T) {
	const huge = 1 << 32
	if _, err := (JobRequest{Algorithm: "snake-a", Rows: huge, Cols: huge, Trials: 1}).ToSpec(Limits{}); err == nil {
		t.Fatal("ToSpec accepted a 2^32 x 2^32 mesh")
	}
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{})
	t.Cleanup(func() { ts.Close(); s.Close() })
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"algorithm":"snake-a","rows":4294967296,"cols":4294967296,"trials":1}`},
		{"/v1/campaigns", `{"algorithms":["snake-a"],"sides":[4294967296],"trials":[1]}`},
		{"/v1/fabric/shard", `{"algorithm":"snake-a","rows":4294967296,"cols":4294967296,"trials":1}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			if resp, buf := postJSON(t, ts.URL+tc.path, tc.body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("got %d %s, want 400", resp.StatusCode, buf)
			}
		})
	}
}

// TestTrialRangeRejected: a trial range past mcbatch.MaxTrialIndex
// would leave the range on which every trial gets its own random
// stream; the job, campaign and fabric-shard decoders answer it with 400.
func TestTrialRangeRejected(t *testing.T) {
	if _, err := (JobRequest{Algorithm: "snake-a", Side: 8, Trials: 1, TrialOffset: 1 << 32}).ToSpec(Limits{}); err == nil {
		t.Fatal("ToSpec accepted trial_offset 2^32")
	}
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{})
	t.Cleanup(func() { ts.Close(); s.Close() })
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"algorithm":"snake-a","side":8,"trials":1,"trial_offset":4294967296}`},
		{"/v1/campaigns", `{"algorithms":["snake-a"],"sides":[8],"trials":[4294967297]}`},
		{"/v1/fabric/shard", `{"algorithm":"snake-a","rows":8,"cols":8,"trials":1,"trial_offset":4294967296}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			resp, buf := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(buf), "trial range") {
				t.Errorf("got %d %s, want 400 naming the trial range", resp.StatusCode, buf)
			}
		})
	}
}

// TestOddColumnRowMajorRejected: the row-major algorithms need an even
// column count; every entry point answers 400 rather than letting the
// schedule constructor panic on a worker or runner goroutine.
func TestOddColumnRowMajorRejected(t *testing.T) {
	if _, err := (JobRequest{Algorithm: "rm-rf", Side: 15, Trials: 1}).ToSpec(Limits{}); err == nil {
		t.Fatal("ToSpec accepted rm-rf 15x15")
	}
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{})
	t.Cleanup(func() { ts.Close(); s.Close() })
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"algorithm":"rm-rf","side":15,"trials":1}`},
		{"/v1/sort", `{"algorithm":"rm-cf","rows":8,"cols":7,"trials":1}`},
		{"/v1/campaigns", `{"algorithms":["snake-a","rm-rf"],"sides":[15],"trials":[1]}`},
		{"/v1/fabric/shard", `{"algorithm":"rm-rf","rows":15,"cols":15,"trials":1}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			resp, buf := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(buf), "even number of columns") {
				t.Errorf("got %d %s, want 400 naming the column rule", resp.StatusCode, buf)
			}
		})
	}
}
