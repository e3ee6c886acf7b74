package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "regenerate testdata/quick_digests.json and testdata/full_digests.json from the current code")

const (
	quickDigestsPath = "testdata/quick_digests.json"
	fullDigestsPath  = "testdata/full_digests.json"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 17 {
		ids := make([]string, 0, len(all))
		for _, e := range all {
			ids = append(ids, e.ID)
		}
		t.Fatalf("registry has %d experiments: %v", len(all), ids)
	}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
	}
	// Ordered by id.
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("registry not sorted: %s >= %s", all[i-1].ID, all[i].ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E01")
	if err != nil || e.ID != "E01" {
		t.Fatalf("ByID(E01) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestAllExperimentsQuick runs the full suite in quick mode at seed 7:
// every experiment must complete without error and with every paper
// claim holding, and the sha256 of its rendered tables must equal the
// committed digest in testdata/quick_digests.json. The digests pin what
// the EXPERIMENTS.md numbers are computed from — most experiments measure
// permutation steps through the span kernel — so a kernel change that
// moves one table cell fails here. Each experiment's subtest runs it once
// per trial-worker count, 1 and 2, and both must reproduce the digest. A
// difference is a behaviour change: regenerate with
// `go test ./internal/experiments/ -run TestAllExperimentsQuick -update`
// and record it in CHANGES.md.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	checkDigests(t, quickDigestsPath, Config{Seed: 7, Quick: true}, []int{1, 2})
}

// TestAllExperimentsFull pins the tables EXPERIMENTS.md quotes: every
// experiment at full size and seed 1, as `go run ./cmd/experiments -seed
// 1` renders them, must hold its claims and reproduce the sha256 in
// testdata/full_digests.json, and every `|` row under an `## E..` heading
// of EXPERIMENTS.md must appear verbatim in that experiment's
// `-format markdown` render. Tables do not depend on the trial-worker
// count (TestAllExperimentsQuick checks two), so it runs one, and it
// takes about 25 s on two cores, so -short skips it. The change rule is
// quick_digests.json's: regenerate with `go test ./internal/experiments/
// -run TestAllExperimentsFull -update`, record it in CHANGES.md, and
// regenerate the EXPERIMENTS.md rows it moves.
func TestAllExperimentsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiment suite skipped in -short mode")
	}
	outs := checkDigests(t, fullDigestsPath, Config{Seed: 1}, []int{2})
	checkQuotedRows(t, "../../EXPERIMENTS.md", outs)
}

// checkQuotedRows requires every table row under an `## E..` heading of
// the markdown file at path to be a line of that experiment's tables as
// Table.Markdown renders them in outs. Prose is not checked.
func checkQuotedRows(t *testing.T, path string, outs map[string]*Outcome) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rendered := map[string]map[string]bool{}
	for id, out := range outs {
		var buf strings.Builder
		for _, tb := range out.Tables {
			if err := tb.Markdown(&buf); err != nil {
				t.Fatal(err)
			}
		}
		rendered[id] = map[string]bool{}
		for _, line := range strings.Split(buf.String(), "\n") {
			rendered[id][line] = true
		}
	}
	id, rows := "", 0
	for i, line := range strings.Split(string(raw), "\n") {
		if heading, ok := strings.CutPrefix(line, "## "); ok {
			id, _, _ = strings.Cut(heading, " ")
			if len(id) != 3 || id[0] != 'E' {
				id = ""
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") {
			continue
		}
		lines, ok := rendered[id]
		if !ok {
			t.Errorf("%s:%d: quotes %s, which did not render", path, i+1, id)
			continue
		}
		if !lines[line] {
			t.Errorf("%s:%d: %s row is not in its fresh render: %s", path, i+1, id, line)
		}
		rows++
	}
	if rows == 0 {
		t.Errorf("%s: no table rows under any experiment heading", path)
	}
}

// checkDigests runs every experiment under cfg once per trial-worker
// count, requires each run to hold its claims and every count to render
// the same tables, and compares the sha256 of each experiment's rendered
// tables with the digest stored at path (rewriting the file under
// -update). It returns each experiment's outcome from the last count.
func checkDigests(t *testing.T, path string, cfg Config, workerCounts []int) map[string]*Outcome {
	var want map[string]string
	if !*updateDigests {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	got := map[string]string{}
	outs := map[string]*Outcome{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					c := cfg
					c.TrialWorkers = workers
					out, err := e.Run(c)
					if err != nil {
						t.Fatalf("%s: %v", e.ID, err)
					}
					if out.ID != e.ID {
						t.Fatalf("outcome id %q != %q", out.ID, e.ID)
					}
					if len(out.Tables) == 0 {
						t.Fatalf("%s produced no tables", e.ID)
					}
					if !out.OK {
						t.Fatalf("%s claims failed:\n%s", e.ID, strings.Join(out.Notes, "\n"))
					}
					h := sha256.New()
					for _, tb := range out.Tables {
						if len(tb.Rows) == 0 {
							t.Fatalf("%s: empty table %q", e.ID, tb.Title)
						}
						rendered := tb.String()
						if rendered == "" {
							t.Fatalf("%s: table failed to render", e.ID)
						}
						h.Write([]byte(rendered))
					}
					sum := hex.EncodeToString(h.Sum(nil))
					if prev, ok := got[e.ID]; ok && prev != sum {
						t.Fatalf("%s: tables differ between trial-worker counts: %s vs %s", e.ID, prev, sum)
					}
					got[e.ID] = sum
					outs[e.ID] = out
					if want != nil && want[e.ID] != sum {
						t.Errorf("%s: tables sha256 %s, golden %s", e.ID, sum, want[e.ID])
					}
				})
			}
		})
	}
	if *updateDigests {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d experiments", path, len(got))
		return outs
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: golden experiment no longer registered", id)
		}
	}
	return outs
}

func TestOutcomeCheckAndNote(t *testing.T) {
	o := newOutcome("X", "test")
	o.check(true, "fine")
	if !o.OK || len(o.Notes) != 0 {
		t.Fatal("passing check mutated outcome")
	}
	o.note("hello %d", 42)
	o.check(false, "boom %s", "now")
	if o.OK || len(o.Notes) != 2 {
		t.Fatalf("outcome = %+v", o)
	}
	if o.Notes[1] != "FAIL: boom now" {
		t.Fatalf("note = %q", o.Notes[1])
	}
}

func TestConfigSeedDefault(t *testing.T) {
	if (Config{}).seed() != 1 || (Config{Seed: 5}).seed() != 5 {
		t.Fatal("seed defaulting wrong")
	}
}

func TestDeterminism(t *testing.T) {
	// Same seed twice must produce identical tables (E05 is cheap).
	e, err := ByID("E05")
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Run(Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(Config{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tables[0].String() != b.Tables[0].String() {
		t.Fatal("same seed produced different tables")
	}
}
