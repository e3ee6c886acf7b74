// Command meshsortctl is the client of the meshsortd trial-serving
// daemon: it submits trial-batch jobs, awaits and pretty-prints results,
// and scrapes the daemon's health and metrics endpoints.
//
// Usage:
//
//	meshsortctl run    -alg snake-a -side 16 -trials 256 [-seed 7] [...] [-json]
//	meshsortctl submit -alg snake-a -side 16 -trials 256 [...]
//	meshsortctl await  -id j-000001 [-timeout 120s] [-json]
//	meshsortctl status -id j-000001
//	meshsortctl campaign submit -spec grid.json [-await] [-timeout 10m]
//	meshsortctl campaign status -id c-... [-wait] [-timeout 10m]
//	meshsortctl campaign export -id c-... [-format json|csv] [-out FILE]
//	meshsortctl peers [-json]
//	meshsortctl metrics
//	meshsortctl health
//
// Every subcommand takes -addr host:port (default 127.0.0.1:8080). `run`
// is synchronous (POST /v1/sort); `submit` + `await` drive the
// asynchronous lifecycle (POST /v1/jobs, long-poll GET /v1/jobs/{id},
// GET /v1/jobs/{id}/result).
//
// Exit codes: 0 success, 1 request or job failure, 2 usage error, and 3
// when the daemon applied backpressure (HTTP 429, queue full) — scripts
// can distinguish "retry later" from "broken".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
)

const (
	exitOK    = 0
	exitErr   = 1
	exitUsage = 2
	exitBusy  = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: meshsortctl <run|submit|await|status|campaign|peers|metrics|health> [flags]")
	fmt.Fprintln(stderr, "run 'meshsortctl <command> -h' for the command's flags")
	return exitUsage
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(rest, stdout, stderr)
	case "submit":
		return cmdSubmit(rest, stdout, stderr)
	case "await":
		return cmdAwait(rest, stdout, stderr)
	case "status":
		return cmdStatus(rest, stdout, stderr)
	case "campaign":
		return cmdCampaign(rest, stdout, stderr)
	case "peers":
		return cmdPeers(rest, stdout, stderr)
	case "metrics":
		return cmdText(rest, stdout, stderr, "/metrics")
	case "health":
		return cmdText(rest, stdout, stderr, "/healthz")
	default:
		fmt.Fprintf(stderr, "meshsortctl: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

// newFlagSet builds a subcommand flag set with the shared -addr flag.
func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("meshsortctl "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "meshsortd address (host:port)")
	return fs, addr
}

// specFlags registers the job-spec flags and returns a closure producing
// the request.
func specFlags(fs *flag.FlagSet) func() serve.JobRequest {
	var (
		alg      = fs.String("alg", "snake-a", "algorithm short name (see 'meshsortctl metrics' or /v1/algorithms)")
		side     = fs.Int("side", 0, "square mesh side (alternative to -rows/-cols)")
		rows     = fs.Int("rows", 0, "mesh rows")
		cols     = fs.Int("cols", 0, "mesh cols")
		trials   = fs.Int("trials", 0, "number of independent trials")
		seed     = fs.Uint64("seed", 0, "master seed (0 = harness default)")
		maxSteps = fs.Int("max-steps", 0, "per-trial step cap (0 = engine default)")
		zeroone  = fs.Bool("zeroone", false, "run half-0/half-1 grids instead of permutations (served by the trial-sliced 0-1 kernel)")
	)
	return func() serve.JobRequest {
		return serve.JobRequest{
			Algorithm: *alg, Side: *side, Rows: *rows, Cols: *cols,
			Trials: *trials, Seed: *seed, MaxSteps: *maxSteps,
			ZeroOne: *zeroone,
		}
	}
}

func httpClient() *http.Client { return &http.Client{Timeout: 10 * time.Minute} }

// doJSON posts a request body and returns the response with its body
// read, retrying transient failures (see retrier).
func doJSON(addr, path string, body any) (*http.Response, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	return transport.do(func() (*http.Response, []byte, error) {
		resp, err := httpClient().Post("http://"+addr+path, "application/json", strings.NewReader(string(buf)))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp, out, err
	})
}

func get(addr, path string) (*http.Response, []byte, error) {
	return transport.do(func() (*http.Response, []byte, error) {
		resp, err := httpClient().Get("http://" + addr + path)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp, out, err
	})
}

// fail prints a server error body (JSON {"error": ...} or raw) and maps
// the status to an exit code.
func fail(stderr io.Writer, resp *http.Response, body []byte) int {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	fmt.Fprintf(stderr, "meshsortctl: %s: %s\n", resp.Status, msg)
	if resp.StatusCode == http.StatusTooManyRequests {
		return exitBusy
	}
	return exitErr
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("run", stderr)
	spec := specFlags(fs)
	asJSON := fs.Bool("json", false, "print the raw result payload instead of a table")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	resp, body, err := doJSON(*addr, "/v1/sort", spec())
	if err != nil {
		fmt.Fprintln(stderr, "meshsortctl:", err)
		return exitErr
	}
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, resp, body)
	}
	return printResult(stdout, stderr, body, resp.Header.Get("X-Meshsort-Cache"), *asJSON)
}

func cmdSubmit(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("submit", stderr)
	spec := specFlags(fs)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	resp, body, err := doJSON(*addr, "/v1/jobs", spec())
	if err != nil {
		fmt.Fprintln(stderr, "meshsortctl:", err)
		return exitErr
	}
	if resp.StatusCode != http.StatusAccepted {
		return fail(stderr, resp, body)
	}
	_, err = stdout.Write(body)
	if err != nil {
		return exitErr
	}
	return exitOK
}

func cmdStatus(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("status", stderr)
	id := fs.String("id", "", "job id")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *id == "" {
		fmt.Fprintln(stderr, "meshsortctl status: -id is required")
		return exitUsage
	}
	resp, body, err := get(*addr, "/v1/jobs/"+*id)
	if err != nil {
		fmt.Fprintln(stderr, "meshsortctl:", err)
		return exitErr
	}
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, resp, body)
	}
	_, _ = stdout.Write(body)
	return exitOK
}

func cmdAwait(args []string, stdout, stderr io.Writer) int {
	fs, addr := newFlagSet("await", stderr)
	id := fs.String("id", "", "job id")
	timeout := fs.Duration("timeout", 2*time.Minute, "give up after this long")
	asJSON := fs.Bool("json", false, "print the raw result payload instead of a table")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *id == "" {
		fmt.Fprintln(stderr, "meshsortctl await: -id is required")
		return exitUsage
	}
	deadline := time.Now().Add(*timeout)
	for {
		resp, body, err := get(*addr, "/v1/jobs/"+*id+"?wait=1")
		if err != nil {
			fmt.Fprintln(stderr, "meshsortctl:", err)
			return exitErr
		}
		if resp.StatusCode != http.StatusOK {
			return fail(stderr, resp, body)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			fmt.Fprintln(stderr, "meshsortctl:", err)
			return exitErr
		}
		switch st.Status {
		case "done":
			resp, body, err := get(*addr, "/v1/jobs/"+*id+"/result")
			if err != nil {
				fmt.Fprintln(stderr, "meshsortctl:", err)
				return exitErr
			}
			if resp.StatusCode != http.StatusOK {
				return fail(stderr, resp, body)
			}
			return printResult(stdout, stderr, body, resp.Header.Get("X-Meshsort-Cache"), *asJSON)
		case "failed":
			fmt.Fprintf(stderr, "meshsortctl: job %s failed: %s\n", *id, st.Error)
			return exitErr
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(stderr, "meshsortctl: job %s still %s after %s\n", *id, st.Status, *timeout)
			return exitErr
		}
	}
}

func cmdText(args []string, stdout, stderr io.Writer, path string) int {
	fs, addr := newFlagSet(strings.TrimPrefix(path, "/"), stderr)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	resp, body, err := get(*addr, path)
	if err != nil {
		fmt.Fprintln(stderr, "meshsortctl:", err)
		return exitErr
	}
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, resp, body)
	}
	_, _ = stdout.Write(body)
	return exitOK
}

// printResult renders a ResultPayload as an aligned table (or raw JSON).
func printResult(stdout, stderr io.Writer, body []byte, cacheHdr string, asJSON bool) int {
	if asJSON {
		_, _ = stdout.Write(body)
		return exitOK
	}
	var p report.ResultPayload
	if err := json.Unmarshal(body, &p); err != nil {
		fmt.Fprintln(stderr, "meshsortctl: bad result payload:", err)
		return exitErr
	}
	fmt.Fprintf(stdout, "%s %dx%d, %d trials, seed %d (cache %s)\nkey %s\n\n",
		p.Spec.Algorithm, p.Spec.Rows, p.Spec.Cols, p.Spec.Trials, p.Spec.Seed,
		orUnknown(cacheHdr), p.Key)
	tbl := report.NewTable("", "metric", "mean", "stddev", "variance", "min", "max", "ci95")
	addRow := func(name string, s report.Summary) {
		ci := "-"
		if s.CI95 != nil {
			ci = report.FormatFloat(*s.CI95)
		}
		tbl.AddRow(name, s.Mean, s.StdDev, s.Variance, s.Min, s.Max, ci)
	}
	addRow("steps", p.Steps)
	addRow("swaps", p.Swaps)
	addRow("comparisons", p.Comparisons)
	if err := tbl.Render(stdout); err != nil {
		return exitErr
	}
	return exitOK
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
