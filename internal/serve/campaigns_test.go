package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// campaignResp decodes a campaign status/submit body.
func campaignResp(t *testing.T, buf []byte) campaignStatusResponse {
	t.Helper()
	var c campaignStatusResponse
	if err := json.Unmarshal(buf, &c); err != nil {
		t.Fatalf("bad campaign response %s: %v", buf, err)
	}
	return c
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
	s, ts := storedServer(st, Config{CampaignConcurrency: 2})
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

func TestCampaignResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// Daemon A runs the full grid, then "crashes" (close everything).
	stA := openTestStore(t, dir)
	sA, tsA := storedServer(stA, Config{CampaignConcurrency: 2})
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
