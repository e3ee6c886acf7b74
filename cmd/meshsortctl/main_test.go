package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/serve"
)

// newDaemon boots an in-process meshsortd equivalent and returns its
// host:port for -addr flags.
func newDaemon(t *testing.T) string {
	t.Helper()
	s := serve.NewServer(serve.Config{
		Logger: slog.New(slog.NewTextHandler(bytes.NewBuffer(nil), nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestRunSubcommand(t *testing.T) {
	addr := newDaemon(t)
	var out, errb bytes.Buffer
	code := run([]string{"run", "-addr", addr, "-alg", "snake-a", "-side", "4", "-trials", "8", "-seed", "3"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("run exit = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"snake-a 4x4, 8 trials, seed 3", "cache miss", "steps", "swaps", "comparisons"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	code = run([]string{"run", "-addr", addr, "-alg", "snake-a", "-side", "4", "-trials", "8", "-seed", "3", "-json"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("run -json exit = %d, stderr: %s", code, errb.String())
	}
	var p report.ResultPayload
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		t.Fatalf("-json output not a ResultPayload: %v", err)
	}
	if p.Spec.Algorithm != "snake-a" || p.Steps.N != 8 {
		t.Fatalf("unexpected payload: %+v", p)
	}
}

func TestSubmitAwaitStatus(t *testing.T) {
	addr := newDaemon(t)
	var out, errb bytes.Buffer
	code := run([]string{"submit", "-addr", addr, "-alg", "rm-rf", "-side", "4", "-trials", "6"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("submit exit = %d, stderr: %s", code, errb.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit output %q: %v", out.String(), err)
	}

	out.Reset()
	code = run([]string{"await", "-addr", addr, "-id", sub.ID, "-timeout", "30s"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("await exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "rm-rf 4x4, 6 trials") {
		t.Fatalf("await output:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{"status", "-addr", addr, "-id", sub.ID}, &out, &errb)
	if code != exitOK {
		t.Fatalf("status exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `"status": "done"`) {
		t.Fatalf("status output:\n%s", out.String())
	}
}

func TestMetricsAndHealth(t *testing.T) {
	addr := newDaemon(t)
	var out, errb bytes.Buffer
	if code := run([]string{"health", "-addr", addr}, &out, &errb); code != exitOK {
		t.Fatalf("health exit = %d", code)
	}
	if strings.TrimSpace(out.String()) != "ok" {
		t.Fatalf("health output %q", out.String())
	}
	out.Reset()
	if code := run([]string{"metrics", "-addr", addr}, &out, &errb); code != exitOK {
		t.Fatalf("metrics exit = %d", code)
	}
	if !strings.Contains(out.String(), "meshsortd_jobs_submitted_total") {
		t.Fatalf("metrics output:\n%s", out.String())
	}
}

// TestBackpressureExitCode pins the 429 → exit 3 contract scripts rely on.
func TestBackpressureExitCode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"queue full"}` + "\n"))
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	var out, errb bytes.Buffer
	code := run([]string{"submit", "-addr", addr, "-alg", "snake-a", "-side", "4", "-trials", "4"}, &out, &errb)
	if code != exitBusy {
		t.Fatalf("submit under backpressure exit = %d, want %d", code, exitBusy)
	}
	if !strings.Contains(errb.String(), "queue full") {
		t.Fatalf("stderr missing server message: %s", errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != exitUsage {
		t.Fatalf("no args exit = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"frobnicate"}, &out, &errb); code != exitUsage {
		t.Fatalf("unknown command exit = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"await", "-addr", "x"}, &out, &errb); code != exitUsage {
		t.Fatalf("await without -id exit = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"status"}, &out, &errb); code != exitUsage {
		t.Fatalf("status without -id exit = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"run", "-bogus"}, &out, &errb); code != exitUsage {
		t.Fatalf("bad flag exit = %d, want %d", code, exitUsage)
	}
}

func TestServerErrorExitCode(t *testing.T) {
	addr := newDaemon(t)
	var out, errb bytes.Buffer
	code := run([]string{"run", "-addr", addr, "-alg", "no-such-alg", "-side", "4", "-trials", "4"}, &out, &errb)
	if code != exitErr {
		t.Fatalf("bad algorithm exit = %d, want %d", code, exitErr)
	}
	if !strings.Contains(errb.String(), "no-such-alg") {
		t.Fatalf("stderr: %s", errb.String())
	}
}
