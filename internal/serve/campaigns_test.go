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
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/mcbatch"
	"repro/internal/store"
)

// openTestStore opens a NoSync store in dir (fsync adds nothing under the
// test filesystem and slows the suite).
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.OpenOptions(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storedServer builds a server over st without t.Cleanup teardown, for
// tests that restart the daemon against one store directory.
func storedServer(st *store.Store, cfg Config) (*Server, *httptest.Server) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.Store = st
	s := NewServer(cfg)
	return s, httptest.NewServer(s.Handler())
}

// TestStoreReadThroughAcrossRestart is the serve-layer durability
// contract: a payload executed by one daemon process is served
// byte-identically by the next process from the store, through a cold
// LRU, and counted as a store-layer hit.
func TestStoreReadThroughAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"algorithm":"snake-b","rows":6,"cols":6,"trials":20,"seed":5}`

	stA := openTestStore(t, dir)
	sA, tsA := storedServer(stA, Config{})
	resp, first := postJSON(t, tsA.URL+"/v1/sort", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first sort: %d %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Meshsort-Cache"); got != "miss" {
		t.Fatalf("fresh store served a cache hit (%q)", got)
	}
	// The store write is write-behind, after the reply; the drain waits
	// for it, since a job leaves the in-flight count only after its Put.
	if err := sA.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, tsA.URL, "meshsortd_store_puts_total"); v != 1 {
		t.Fatalf("store_puts_total = %v, want 1", v)
	}
	if v := metricValue(t, tsA.URL, "meshsortd_store_entries"); v != 1 {
		t.Fatalf("store_entries = %v, want 1", v)
	}
	tsA.Close()
	sA.Close()
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	stB := openTestStore(t, dir)
	defer stB.Close()
	sB, tsB := storedServer(stB, Config{})
	defer func() { tsB.Close(); sB.Close() }()
	resp, second := postJSON(t, tsB.URL+"/v1/sort", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted sort: %d %s", resp.StatusCode, second)
	}
	if got := resp.Header.Get("X-Meshsort-Cache"); got != "hit" {
		t.Fatalf("restarted daemon did not serve from store (%q)", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("restart broke byte identity:\n%s\nvs\n%s", first, second)
	}
	if v := metricValue(t, tsB.URL, `meshsortd_cache_hits_total{layer="store"}`); v != 1 {
		t.Fatalf(`cache_hits_total{layer="store"} = %v, want 1`, v)
	}
	if v := metricValue(t, tsB.URL, `meshsortd_cache_hits_total{layer="memory"}`); v != 0 {
		t.Fatalf(`cache_hits_total{layer="memory"} = %v, want 0`, v)
	}

	// The store hit populated the LRU: a third submission is a memory hit.
	resp, third := postJSON(t, tsB.URL+"/v1/sort", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(first, third) {
		t.Fatalf("third sort: %d, identical=%v", resp.StatusCode, bytes.Equal(first, third))
	}
	if v := metricValue(t, tsB.URL, `meshsortd_cache_hits_total{layer="memory"}`); v != 1 {
		t.Fatalf(`cache_hits_total{layer="memory"} = %v after store promotion, want 1`, v)
	}
}

const testCampaignBody = `{
  "name": "grid-test",
  "algorithms": ["snake-a", "rm-rf"],
  "sides": [4, 6],
  "trials": [8],
  "workloads": ["perm", "zeroone"],
  "seed": 9
}`

// repeatedAxesBody is a campaign body of n repeated sides and n repeated
// trial counts: about 4n bytes that name an n×n grid.
func repeatedAxesBody(n int) string {
	return `{"algorithms":["snake-a"],"sides":[4` + strings.Repeat(",4", n-1) +
		`],"trials":[8` + strings.Repeat(",8", n-1) + `]}`
}

// eventually polls cond every millisecond for up to 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// submitCampaign posts a campaign body and returns its ID.
func submitCampaign(t *testing.T, baseURL, body string) string {
	t.Helper()
	resp, buf := postJSON(t, baseURL+"/v1/campaigns", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("campaign submit: %d %s", resp.StatusCode, buf)
	}
	return campaignResp(t, buf).ID
}

// campaignResp decodes a campaign status/submit body.
func campaignResp(t *testing.T, buf []byte) campaignStatusResponse {
	t.Helper()
	var c campaignStatusResponse
	if err := json.Unmarshal(buf, &c); err != nil {
		t.Fatalf("bad campaign response %s: %v", buf, err)
	}
	return c
}

// expandBody decodes a campaign body and expands it as the daemon does.
func expandBody(t *testing.T, body string) (string, []campaign.Cell) {
	t.Helper()
	var spec campaign.Spec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	id, cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return id, cells
}

// awaitCampaign long-polls until the campaign leaves the running state.
func awaitCampaign(t *testing.T, baseURL, id string) campaignStatusResponse {
	t.Helper()
	for i := 0; i < 100; i++ {
		resp, buf := getBody(t, baseURL+"/v1/campaigns/"+id+"?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("campaign status: %d %s", resp.StatusCode, buf)
		}
		c := campaignResp(t, buf)
		if c.Status != "running" {
			return c
		}
	}
	t.Fatal("campaign never finished")
	return campaignStatusResponse{}
}

func TestCampaignLifecycle(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{})
	t.Cleanup(func() { ts.Close(); s.Close() })

	resp, buf := postJSON(t, ts.URL+"/v1/campaigns", testCampaignBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, buf)
	}
	sub := campaignResp(t, buf)
	if !strings.HasPrefix(sub.ID, "c-") || sub.Cells != 8 || sub.Deduped {
		t.Fatalf("submit response: %+v", sub)
	}

	final := awaitCampaign(t, ts.URL, sub.ID)
	if final.Status != "done" || final.Executed != 8 || final.Skipped != 0 || final.Remaining != 0 {
		t.Fatalf("final status: %+v", final)
	}

	// Resubmission of the identical grid dedups onto the live campaign.
	resp, buf = postJSON(t, ts.URL+"/v1/campaigns", testCampaignBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, buf)
	}
	if re := campaignResp(t, buf); re.ID != sub.ID || !re.Deduped {
		t.Fatalf("resubmit did not dedup: %+v", re)
	}

	// Exports: JSON is stable across calls, CSV has header + 8 rows.
	resp, json1 := getBody(t, ts.URL+"/v1/campaigns/"+sub.ID+"/export")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %s", resp.StatusCode, json1)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("export content type %q", ct)
	}
	_, json2 := getBody(t, ts.URL+"/v1/campaigns/"+sub.ID+"/export?format=json")
	if !bytes.Equal(json1, json2) {
		t.Fatal("repeated JSON exports differ")
	}
	resp, csv := getBody(t, ts.URL+"/v1/campaigns/"+sub.ID+"/export?format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv export: %d %s", resp.StatusCode, csv)
	}
	if lines := bytes.Split(bytes.TrimSpace(csv), []byte("\n")); len(lines) != 9 {
		t.Fatalf("csv export has %d lines, want 9:\n%s", len(lines), csv)
	}

	// Campaign cells share the store with ad-hoc jobs: submitting one grid
	// point as a plain job is a store (or memory) hit, never an execution.
	resp, buf = postJSON(t, ts.URL+"/v1/sort",
		`{"algorithm":"snake-a","side":4,"trials":8,"seed":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid-point sort: %d %s", resp.StatusCode, buf)
	}
	if resp.Header.Get("X-Meshsort-Cache") != "hit" {
		t.Fatal("campaign cell not shared with the job cache")
	}

	if v := metricValue(t, ts.URL, `meshsortd_campaign_cells_total{outcome="executed"}`); v != 8 {
		t.Fatalf(`campaign_cells_total{outcome="executed"} = %v, want 8`, v)
	}
	resp, buf = getBody(t, ts.URL+"/v1/campaigns/"+sub.ID+"/export?format=xml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus export format: %d %s", resp.StatusCode, buf)
	}
}

// TestCampaignPersistsEveryCell: a cell counts as executed only once the
// store holds it, so a campaign that reads done has stored every cell of
// its grid, each once. A second campaign over the same grid in the same
// process runs nothing.
func TestCampaignPersistsEveryCell(t *testing.T) {
	_, cells := expandBody(t, testCampaignBody)
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{TrialWorkers: 2})
	t.Cleanup(func() { ts.Close(); s.Close() })

	id := submitCampaign(t, ts.URL, testCampaignBody)
	if final := awaitCampaign(t, ts.URL, id); final.Status != "done" || final.Executed != len(cells) || final.Skipped != 0 {
		t.Fatalf("first campaign: %+v, want done with %d executed", final, len(cells))
	}
	// No Drain before reading the store: done already implies durable.
	for _, c := range cells {
		if !st.Has(c.Key) {
			t.Fatalf("cell %s not persisted", c)
		}
	}

	// Another name gives another campaign ID, so this one does not dedup
	// onto the first: it runs, and finds every cell stored.
	again := strings.Replace(testCampaignBody, `"grid-test"`, `"grid-test-again"`, 1)
	id2 := submitCampaign(t, ts.URL, again)
	if id2 == id {
		t.Fatalf("renamed campaign kept ID %s", id)
	}
	if final := awaitCampaign(t, ts.URL, id2); final.Status != "done" || final.Executed != 0 || final.Skipped != len(cells) {
		t.Fatalf("second campaign: %+v, want done with %d skipped", final, len(cells))
	}
	for _, m := range []struct {
		name string
		want float64
	}{
		{"meshsortd_cache_misses_total", float64(len(cells))},
		{"meshsortd_store_puts_total", float64(len(cells))},
		{"meshsortd_store_entries", float64(len(cells))},
		{"meshsortd_store_dead_bytes", 0},
	} {
		if v := metricValue(t, ts.URL, m.name); v != m.want {
			t.Errorf("%s = %v, want %v", m.name, v, m.want)
		}
	}
}

func TestCampaignResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// Daemon A runs the full grid, then "crashes" (close everything).
	stA := openTestStore(t, dir)
	sA, tsA := storedServer(stA, Config{})
	resp, buf := postJSON(t, tsA.URL+"/v1/campaigns", testCampaignBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d %s", resp.StatusCode, buf)
	}
	id := campaignResp(t, buf).ID
	if final := awaitCampaign(t, tsA.URL, id); final.Status != "done" {
		t.Fatalf("campaign A: %+v", final)
	}
	_, exportA := getBody(t, tsA.URL+"/v1/campaigns/"+id+"/export")
	tsA.Close()
	sA.Close()
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	// Daemon B over the same store: resubmission resumes — same ID, zero
	// executions, byte-identical export.
	stB := openTestStore(t, dir)
	defer stB.Close()
	sB, tsB := storedServer(stB, Config{})
	defer func() { tsB.Close(); sB.Close() }()
	resp, buf = postJSON(t, tsB.URL+"/v1/campaigns", testCampaignBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d %s", resp.StatusCode, buf)
	}
	reB := campaignResp(t, buf)
	if reB.ID != id {
		t.Fatalf("restart changed campaign ID: %s vs %s", reB.ID, id)
	}
	final := awaitCampaign(t, tsB.URL, id)
	if final.Status != "done" || final.Executed != 0 || final.Skipped != 8 {
		t.Fatalf("resumed campaign: %+v", final)
	}
	if v := metricValue(t, tsB.URL, "meshsortd_campaigns_resumed_total"); v != 1 {
		t.Fatalf("campaigns_resumed_total = %v, want 1", v)
	}
	_, exportB := getBody(t, tsB.URL+"/v1/campaigns/"+id+"/export")
	if !bytes.Equal(exportA, exportB) {
		t.Fatal("export not byte-identical across restart")
	}
}

func TestCampaignValidationAndErrors(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{Limits: Limits{MaxTrials: 100, MaxCells: 64}})
	t.Cleanup(func() { ts.Close(); s.Close() })

	cases := []struct {
		name, body string
		status     int
		errSub     string
	}{
		{"empty grid", `{"algorithms":[],"sides":[4],"trials":[8]}`,
			http.StatusBadRequest, "no algorithms"},
		{"unknown field", `{"algorithms":["snake-a"],"sides":[4],"trials":[8],"bogus":1}`,
			http.StatusBadRequest, "bogus"},
		{"trials over limit", `{"algorithms":["snake-a"],"sides":[4],"trials":[101]}`,
			http.StatusBadRequest, "over limit"},
		{"mesh over limit", `{"algorithms":["snake-a"],"sides":[9],"trials":[8]}`,
			http.StatusBadRequest, "over limit"},
		// An 8 KB body naming a 2,000 × 2,000 grid is refused before
		// anything is sized for its 4,000,000 cells.
		{"grid over the cell limit", repeatedAxesBody(2000),
			http.StatusBadRequest, "4096-cell limit"},
	}
	for _, tc := range cases {
		resp, buf := postJSON(t, ts.URL+"/v1/campaigns", tc.body)
		if resp.StatusCode != tc.status || !strings.Contains(string(buf), tc.errSub) {
			t.Errorf("%s: got %d %s, want %d with %q", tc.name, resp.StatusCode, buf, tc.status, tc.errSub)
		}
	}

	if resp, _ := getBody(t, ts.URL+"/v1/campaigns/c-doesnotexist"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status: %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/campaigns/c-doesnotexist/export"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id export: %d", resp.StatusCode)
	}
}

func TestCampaignRequiresStore(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // no store
	resp, buf := postJSON(t, ts.URL+"/v1/campaigns", testCampaignBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("storeless campaign submit: %d %s", resp.StatusCode, buf)
	}
	if !strings.Contains(string(buf), "-store") {
		t.Fatalf("error does not point at the -store flag: %s", buf)
	}
}

// TestCampaignWithoutStoreRunsNothing: a storeless daemon refuses a
// campaign before registering it or running any of its cells.
func TestCampaignWithoutStoreRunsNothing(t *testing.T) {
	id, _ := expandBody(t, testCampaignBody)
	_, ts := newTestServer(t, Config{}) // no store
	if resp, buf := postJSON(t, ts.URL+"/v1/campaigns", testCampaignBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("storeless campaign submit: %d %s", resp.StatusCode, buf)
	}
	if resp, buf := getBody(t, ts.URL+"/v1/campaigns/"+id); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused campaign is registered: %d %s", resp.StatusCode, buf)
	}
	for _, name := range []string{
		"meshsortd_campaigns_submitted_total",
		"meshsortd_campaigns_running",
		`meshsortd_campaign_cells_total{outcome="executed"}`,
		"meshsortd_cache_misses_total",
		`meshsortd_jobs_completed_total{status="ok"}`,
	} {
		if v := metricValue(t, ts.URL, name); v != 0 {
			t.Errorf("%s = %v after a refused campaign, want 0", name, v)
		}
	}
}

// TestNegativeMaxStepsRejected pins that a negative step cap is a 400 at
// the fabric shard and campaign endpoints, like at /v1/jobs, and that the
// daemon keeps serving a 0-1 job afterwards.
func TestNegativeMaxStepsRejected(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{})
	t.Cleanup(func() { ts.Close(); s.Close() })

	for _, tc := range []struct{ path, body string }{
		{"/v1/fabric/shard", `{"algorithm":"snake-a","rows":4,"cols":4,"trials":3,"seed":1,"max_steps":-1,"zeroone":true}`},
		{"/v1/campaigns", `{"algorithms":["snake-a"],"sides":[4],"trials":[3],"workloads":["zeroone"],"max_steps":-1}`},
	} {
		resp, buf := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(buf), "max_steps must be") {
			t.Errorf("%s: got %d %s, want 400 naming max_steps", tc.path, resp.StatusCode, buf)
		}
	}
	resp, buf := postJSON(t, ts.URL+"/v1/sort", `{"algorithm":"snake-a","side":4,"trials":3,"seed":1,"zeroone":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon stopped serving after the rejected requests: %d %s", resp.StatusCode, buf)
	}
}

// TestCampaignResumeRunsOnlyMissingCells: a campaign skips the cells an
// earlier process stored (here three grid points served by /v1/sort)
// and runs only the rest.
func TestCampaignResumeRunsOnlyMissingCells(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	sA, tsA := storedServer(st, Config{})
	for _, body := range []string{
		`{"algorithm":"snake-a","side":4,"trials":8,"seed":9}`,
		`{"algorithm":"snake-a","side":6,"trials":8,"seed":9,"zeroone":true}`,
		`{"algorithm":"rm-rf","side":4,"trials":8,"seed":9}`,
	} {
		if resp, buf := postJSON(t, tsA.URL+"/v1/sort", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("sort %s: %d %s", body, resp.StatusCode, buf)
		}
	}
	// Drain waits for the write-behind puts.
	if err := sA.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	sA.Close()
	if st.Len() != 3 {
		t.Fatalf("store holds %d keys after three sorts, want 3", st.Len())
	}

	sB, tsB := storedServer(st, Config{})
	t.Cleanup(func() { tsB.Close(); sB.Close() })
	id := submitCampaign(t, tsB.URL, testCampaignBody)
	final := awaitCampaign(t, tsB.URL, id)
	if final.Status != "done" || final.Skipped != 3 || final.Executed != 5 {
		t.Fatalf("campaign over 3 stored cells: %+v, want done with 3 skipped and 5 executed", final)
	}
	if v := metricValue(t, tsB.URL, "meshsortd_cache_misses_total"); v != 5 {
		t.Fatalf("cache_misses_total = %v, want 5", v)
	}
	if v := metricValue(t, tsB.URL, "meshsortd_campaigns_resumed_total"); v != 1 {
		t.Fatalf("campaigns_resumed_total = %v, want 1", v)
	}
	if st.Len() != 8 {
		t.Fatalf("store holds %d keys, want 8", st.Len())
	}
}

// TestCampaignDrainFinishesRunningCell: once Drain starts, a campaign
// starts no further cell, but the cell already running is an in-flight
// job like any other: it finishes and is stored. A restarted daemon
// resumes after it, and its exports equal those of an uninterrupted run
// on a fresh store byte for byte.
func TestCampaignDrainFinishesRunningCell(t *testing.T) {
	_, cells := expandBody(t, testCampaignBody)

	dir := t.TempDir()
	gate := make(chan struct{})
	stA := openTestStore(t, dir)
	sA, tsA := storedServer(stA, Config{testGate: gate})
	id := submitCampaign(t, tsA.URL, testCampaignBody)
	// The first cell has started (a cache miss) and is held at the gate.
	eventually(t, "the first cell started", func() bool {
		return metricValue(t, tsA.URL, "meshsortd_cache_misses_total") == 1
	})
	drained := make(chan error, 1)
	go func() { drained <- sA.Drain(context.Background()) }()
	eventually(t, "Drain set the draining flag", func() bool {
		sA.mu.Lock()
		defer sA.mu.Unlock()
		return sA.draining
	})
	select {
	case err := <-drained:
		t.Fatalf("Drain returned with a cell held: %v", err)
	default:
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	resp, buf := getBody(t, tsA.URL+"/v1/campaigns/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after drain: %d %s", resp.StatusCode, buf)
	}
	if c := campaignResp(t, buf); c.Status != "interrupted" || c.Executed != 1 || c.Skipped != 0 {
		t.Fatalf("drained campaign: %+v, want interrupted after 1 executed cell", c)
	}
	if !stA.Has(cells[0].Key) || stA.Len() != 1 {
		t.Fatalf("store holds %d keys (first cell stored: %v), want the held cell alone", stA.Len(), stA.Has(cells[0].Key))
	}
	tsA.Close()
	sA.Close()
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same store and resubmit: the campaign resumes.
	stB := openTestStore(t, dir)
	t.Cleanup(func() { stB.Close() })
	sB, tsB := storedServer(stB, Config{})
	t.Cleanup(func() { tsB.Close(); sB.Close() })
	if again := submitCampaign(t, tsB.URL, testCampaignBody); again != id {
		t.Fatalf("restart changed campaign ID: %s vs %s", again, id)
	}
	if final := awaitCampaign(t, tsB.URL, id); final.Status != "done" || final.Skipped < 1 || final.Skipped+final.Executed != 8 {
		t.Fatalf("resumed campaign: %+v", final)
	}

	// The same campaign, uninterrupted, on a fresh store.
	stC := openTestStore(t, t.TempDir())
	t.Cleanup(func() { stC.Close() })
	sC, tsC := storedServer(stC, Config{})
	t.Cleanup(func() { tsC.Close(); sC.Close() })
	submitCampaign(t, tsC.URL, testCampaignBody)
	if final := awaitCampaign(t, tsC.URL, id); final.Status != "done" || final.Executed != 8 {
		t.Fatalf("uninterrupted campaign: %+v", final)
	}
	for _, format := range []string{"json", "csv"} {
		_, resumed := getBody(t, tsB.URL+"/v1/campaigns/"+id+"/export?format="+format)
		_, whole := getBody(t, tsC.URL+"/v1/campaigns/"+id+"/export?format="+format)
		if !bytes.Equal(resumed, whole) {
			t.Fatalf("%s export after a drain and a resume differs from an uninterrupted run's", format)
		}
	}
}

// TestCampaignCellDedupsOntoJob: cells of two campaigns whose key a
// /v1/jobs job is computing wait for that job instead of running the
// batch again, and the job's write-behind put is the only write of the
// record, so the store holds no dead bytes.
func TestCampaignCellDedupsOntoJob(t *testing.T) {
	gate := make(chan struct{})
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := storedServer(st, Config{Concurrency: 1, testGate: gate})
	t.Cleanup(func() { ts.Close(); s.Close() })

	resp, buf := postJSON(t, ts.URL+"/v1/jobs", `{"algorithm":"snake-b","side":6,"trials":20,"seed":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, buf)
	}
	var sub submitResponse
	if err := json.Unmarshal(buf, &sub); err != nil {
		t.Fatal(err)
	}
	job, _ := s.jobByID(sub.ID)
	eventually(t, "the job is held at the gate", func() bool {
		state, _, _ := job.Snapshot()
		return state == JobRunning
	})

	var ids []string
	for _, name := range []string{"overlap-a", "overlap-b"} {
		ids = append(ids, submitCampaign(t, ts.URL, fmt.Sprintf(
			`{"name":%q,"algorithms":["snake-b"],"sides":[6],"trials":[20],"seed":5}`, name)))
	}
	// Wait until both cells are attached to the held job. (A campaign
	// whose cells do not deduplicate onto jobs finishes on its own
	// instead, and the checks below fail.)
	eventually(t, "both cells attached to the held job", func() bool {
		if metricValue(t, ts.URL, "meshsortd_jobs_deduped_total") == 2 {
			return true
		}
		for _, id := range ids {
			if _, buf := getBody(t, ts.URL+"/v1/campaigns/"+id); campaignResp(t, buf).Status == "running" {
				return false
			}
		}
		return true
	})
	close(gate)
	for _, id := range ids {
		if final := awaitCampaign(t, ts.URL, id); final.Status != "done" || final.Executed != 1 || final.Skipped != 0 {
			t.Errorf("campaign %s: %+v, want done with its cell executed", id, final)
		}
	}
	<-job.Done()
	if state, errMsg, _ := job.Snapshot(); state != JobDone {
		t.Fatalf("job ended %s: %s", state, errMsg)
	}
	// The job's write-behind put has happened by the time Drain returns.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		want float64
	}{
		{"meshsortd_cache_misses_total", 1},
		{`meshsortd_jobs_completed_total{status="ok"}`, 1},
		{"meshsortd_jobs_deduped_total", 2},
		{"meshsortd_store_puts_total", 1},
		{"meshsortd_store_entries", 1},
		{"meshsortd_store_dead_bytes", 0},
	} {
		if v := metricValue(t, ts.URL, m.name); v != m.want {
			t.Errorf("%s = %v, want %v", m.name, v, m.want)
		}
	}
}

// FuzzCampaignSpec feeds arbitrary bodies through the daemon's campaign
// decoder and campaign.Spec.Expand. Neither may panic, a refused body is
// a 400, and an accepted spec expands to an error or to 1..MaxCells
// cells that the batch runner and the store can take: a mesh the
// algorithm accepts, a trial range DefaultStream keeps injective, a
// non-negative step cap, and distinct keys, each its spec's Hash; a
// second expansion gives the same ID.
func FuzzCampaignSpec(f *testing.F) {
	for _, body := range []string{
		testCampaignBody,
		repeatedAxesBody(65), // 4,225 cells, just past the bound
		`{"algorithms":["snake-a"],"sides":[4],"trials":[3],"workloads":["zeroone"],"max_steps":-1}`,
		`{"algorithms":["snake-a"],"sides":[4],"trials":[3],"workloads":["gauss"]}`,
		`{"algorithms":["snake-a"],"sides":[2147483648],"trials":[4]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		spec, ok := decodeBody[campaign.Spec](w, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body)), "bad campaign spec")
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("refused body answered %d, want 400", w.Code)
			}
			return
		}
		// Expand hashes one stream id per trial of every cell, so large
		// trial counts make an input take seconds whatever its outcome.
		// Skip a grid within the cell bound that could hash more than
		// 2^20 ids; one past the bound is refused before any hashing.
		size := 1
		for _, l := range []int{len(spec.Algorithms), len(spec.Sides), len(spec.Trials), max(len(spec.Workloads), 1)} {
			size = min(size*l, campaign.MaxCells+1)
		}
		most := 0
		for _, n := range spec.Trials {
			most = max(most, min(n, 1<<32))
		}
		if size <= campaign.MaxCells && size*most > 1<<20 {
			return
		}
		id, cells, err := spec.Expand()
		if err != nil {
			return
		}
		if len(cells) < 1 || len(cells) > campaign.MaxCells {
			t.Fatalf("accepted a grid of %d cells", len(cells))
		}
		seen := make(map[mcbatch.Key]bool, len(cells))
		for _, c := range cells {
			if err := c.Spec.Algorithm.CheckMesh(c.Spec.Rows, c.Spec.Cols); err != nil {
				t.Fatalf("cell %s: %v", c, err)
			}
			if err := c.Spec.CheckTrialRange(); err != nil {
				t.Fatalf("cell %s: %v", c, err)
			}
			if c.Spec.MaxSteps < 0 {
				t.Fatalf("cell %s: max_steps %d", c, c.Spec.MaxSteps)
			}
			if key, err := c.Spec.Hash(); err != nil || key != c.Key {
				t.Fatalf("cell %s: key %s, Hash() = %s, %v", c, c.Key, key, err)
			}
			if seen[c.Key] {
				t.Fatalf("cell %s: key %s repeated", c, c.Key)
			}
			seen[c.Key] = true
		}
		if again, _, err := spec.Expand(); err != nil || again != id {
			t.Fatalf("second expansion: ID %s, %v; first %s", again, err, id)
		}
	})
}
