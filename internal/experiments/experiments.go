// Package experiments defines one runnable experiment per quantitative
// claim of the paper — E01 through E15, plus the E16 extension — and a
// harness to execute them. Each
// experiment regenerates a paper-vs-measured table: measured step counts
// against the proved lower bounds, sample moments against the exact closed
// forms, empirical tail probabilities against the Chebyshev bounds, and the
// worst-case constructions against Corollary 1.
//
// The paper contains no numeric tables or figures (it is a theory paper),
// so the experiment ids index its theorems and lemmas; EXPERIMENTS.md holds
// the recorded outputs.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/report"
)

// Config controls how much work an experiment does.
type Config struct {
	// Seed makes every experiment deterministic. Zero means seed 1.
	Seed uint64
	// Quick shrinks mesh sizes and trial counts so the whole suite runs in
	// seconds (used by tests and -quick).
	Quick bool
	// TrialWorkers sizes the mcbatch trial-level worker pool (0 uses
	// GOMAXPROCS). Trials derive per-trial RNG streams, so any value
	// produces identical results; it only changes wall-clock time.
	TrialWorkers int
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Outcome is the result of one experiment.
type Outcome struct {
	ID    string
	Title string
	// Tables hold the regenerated paper-vs-measured rows.
	Tables []*report.Table
	// Notes carry free-form observations (e.g. documented paper typos).
	Notes []string
	// OK reports whether the paper's qualitative claim held in this run.
	OK bool
}

// Experiment couples a paper claim with the code that regenerates it.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(Config) (*Outcome, error)
}

// registry is populated by the e*.go files' init functions. It is an
// ordered slice plus an id index — not a map — so that no caller ever
// iterates experiments in map order (the detrand pass forbids it).
var (
	registry []Experiment
	byID     = map[string]int{}
)

func register(e Experiment) {
	if _, dup := byID[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %s", e.ID))
	}
	byID[e.ID] = len(registry)
	registry = append(registry, e)
}

// All returns every experiment ordered by id.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	i, ok := byID[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return registry[i], nil
}

// newOutcome is a small constructor used by the experiment files.
func newOutcome(id, title string) *Outcome {
	return &Outcome{ID: id, Title: title, OK: true}
}

// check records a named condition in the outcome: a failed condition flips
// OK and leaves a note.
func (o *Outcome) check(cond bool, format string, args ...interface{}) {
	if !cond {
		o.OK = false
		o.Notes = append(o.Notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// note records an informational note.
func (o *Outcome) note(format string, args ...interface{}) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}
