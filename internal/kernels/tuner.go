package kernels

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
)

// Environment knobs. Operators and benchmarks pin behavior with these;
// none can change results — only which bit-identical executor runs.
const (
	// EnvKernel forces the auto-resolved kernel for every batch whose
	// caller did not pin one explicitly (hints win over the env), so a
	// run can hold one executor fixed whatever the calibration says. An
	// unknown name, or a kernel that does not serve the batch's class,
	// is ignored.
	EnvKernel = "MESHSORT_KERNEL"
	// EnvTune opts in to measured calibration ("1" or "on"): unresolved
	// batches large enough to amortize a probe time each eligible kernel
	// once per (algorithm, shape, class) and keep the winner. Off by
	// default — the static priors are correct on every machine measured
	// so far, and probing inside short-lived test processes would cost
	// more than it saves.
	EnvTune = "MESHSORT_TUNE"
	// EnvTuneFile persists the calibration table as JSON at the given
	// path: loaded when the process tuner is first used, rewritten after
	// every calibration. The format is pinned by TableVersion and the
	// golden test.
	EnvTuneFile = "MESHSORT_TUNE_FILE"
)

// TableVersion is the calibration table's format version. Bump it when
// the JSON shape changes; stale files are discarded on load.
const TableVersion = 1

// Key identifies one calibration target: the tuner measures per
// (schedule, shape, workload class), matching the axes that move the
// kernels' relative cost.
type Key struct {
	Algorithm  string
	Rows, Cols int
	Class      Class
}

// String renders the key as the table's map key, e.g. "snake-a/32x32/permutation".
func (k Key) String() string {
	return fmt.Sprintf("%s/%dx%d/%s", k.Algorithm, k.Rows, k.Cols, k.Class)
}

// Measurement is one timed probe of one kernel.
type Measurement struct {
	Kernel     string  `json:"kernel"`
	NsPerTrial float64 `json:"ns_per_trial"`
}

// Choice is a calibrated decision: the winning kernel plus the
// measurements that justified it, kept for inspection and reports.
type Choice struct {
	Kernel   string        `json:"kernel"`
	Measured []Measurement `json:"measured,omitempty"`
}

// Table is the persisted calibration table.
type Table struct {
	Version int               `json:"version"`
	Entries map[string]Choice `json:"entries"`
}

// Probe times one kernel on a small pinned batch and returns its cost in
// nanoseconds per trial. Probes must be deterministic in everything but
// time: same spec, same seed, Workers=1.
type Probe func(k core.Kernel) (nsPerTrial float64, err error)

// Tuner resolves kernel hints to executors, caching measured choices.
type Tuner struct {
	mu    sync.Mutex
	table Table
	path  string // persistence target; "" keeps the table in memory only
}

// NewTuner returns a tuner persisting to path ("" = in-memory). An
// existing table at path is loaded; unreadable or version-mismatched
// files are discarded, never an error — calibration rebuilds them.
func NewTuner(path string) *Tuner {
	tu := &Tuner{path: path, table: Table{Version: TableVersion, Entries: map[string]Choice{}}}
	if path == "" {
		return tu
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return tu
	}
	var t Table
	if json.Unmarshal(data, &t) == nil && t.Version == TableVersion && t.Entries != nil {
		tu.table = t
	}
	return tu
}

var (
	sharedOnce sync.Once
	shared     *Tuner
)

// Shared returns the process-wide tuner, persisting to $MESHSORT_TUNE_FILE
// when set.
func Shared() *Tuner {
	sharedOnce.Do(func() {
		shared = NewTuner(os.Getenv(EnvTuneFile))
	})
	return shared
}

// Table returns a deep copy of the current calibration table.
//
//meshlint:exempt detrand the map range only copies entries into another map; no ordered output or trial result depends on iteration order
func (tu *Tuner) Table() Table {
	tu.mu.Lock()
	defer tu.mu.Unlock()
	out := Table{Version: tu.table.Version, Entries: make(map[string]Choice, len(tu.table.Entries))}
	for k, v := range tu.table.Entries {
		v.Measured = append([]Measurement(nil), v.Measured...)
		out.Entries[k] = v
	}
	return out
}

// TuningEnabled reports whether $MESHSORT_TUNE opts this process in to
// measured calibration.
func TuningEnabled() bool {
	v := os.Getenv(EnvTune)
	return v == "1" || v == "on"
}

// Override returns the kernel forced by $MESHSORT_KERNEL for class c, if
// the variable names one that serves the class.
func Override(c Class) (core.Kernel, bool) {
	name := os.Getenv(EnvKernel)
	if name == "" {
		return core.KernelAuto, false
	}
	k, err := core.KernelByName(name)
	if err != nil || k == core.KernelAuto || !Supports(k, c) {
		return core.KernelAuto, false
	}
	return k, true
}

// Resolve maps a caller's kernel hint to the executor that will run the
// batch. Precedence: an explicit hint that serves the class wins (hints
// pin exact executors and never error — an ineligible hint means
// "choose"); then the $MESHSORT_KERNEL override; then a previously
// calibrated choice; then, when probe is non-nil, a fresh calibration;
// finally the static priors. The choice can never change results — every
// registered kernel of a class is bit-identical on it.
func (tu *Tuner) Resolve(hint core.Kernel, key Key, probe Probe) core.Kernel {
	if hint != core.KernelAuto && Supports(hint, key.Class) {
		return hint
	}
	if k, ok := Override(key.Class); ok {
		return k
	}
	tu.mu.Lock()
	ch, ok := tu.table.Entries[key.String()]
	tu.mu.Unlock()
	if ok {
		if k, err := core.KernelByName(ch.Kernel); err == nil && Supports(k, key.Class) {
			return k
		}
	}
	if probe != nil {
		if k, err := tu.Calibrate(key, probe); err == nil {
			return k
		}
	}
	return Fallback(key.Class)
}

// Calibrate times every kernel eligible for key's class with probe,
// records the fastest in the table (persisting it when the tuner has a
// path), and returns it. Kernels whose probe fails are skipped; if every
// probe fails the static fallback is returned with the first error.
func (tu *Tuner) Calibrate(key Key, probe Probe) (core.Kernel, error) {
	var (
		measured []Measurement
		best     core.Kernel
		bestNs   float64
		firstErr error
	)
	for _, e := range Eligible(key.Class) {
		ns, err := probe(e.ID)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		measured = append(measured, Measurement{Kernel: e.Name, NsPerTrial: ns})
		if len(measured) == 1 || ns < bestNs {
			best, bestNs = e.ID, ns
		}
	}
	if len(measured) == 0 {
		return Fallback(key.Class), firstErr
	}
	sort.Slice(measured, func(i, j int) bool { return measured[i].NsPerTrial < measured[j].NsPerTrial })
	tu.mu.Lock()
	tu.table.Entries[key.String()] = Choice{Kernel: core.KernelName(best), Measured: measured}
	data, err := MarshalTable(tu.table)
	path := tu.path
	tu.mu.Unlock()
	if path != "" && err == nil {
		// Persistence is best-effort: a read-only disk loses the cache,
		// not the batch.
		_ = os.WriteFile(path, data, 0o644)
	}
	return best, nil
}

// MarshalTable renders a calibration table in its canonical on-disk form
// (the format the golden test pins): two-space indentation, entries
// sorted by key, trailing newline.
func MarshalTable(t Table) ([]byte, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
