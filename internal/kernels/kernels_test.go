package kernels

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestRegistryShape(t *testing.T) {
	if len(All()) != 4 {
		t.Fatalf("registry has %d entries, want 4", len(All()))
	}
	for _, e := range All() {
		if e.Name != core.KernelName(e.ID) {
			t.Errorf("entry %q: name != core.KernelName(%d) = %q", e.Name, e.ID, core.KernelName(e.ID))
		}
		if len(e.Classes) == 0 {
			t.Errorf("entry %q serves no class", e.Name)
		}
	}
	if k := Fallback(Permutation); k != core.KernelSpan {
		t.Fatalf("permutation fallback = %v, want span", k)
	}
	if k := Fallback(ZeroOne); k != core.KernelSliced {
		t.Fatalf("zeroone fallback = %v, want sliced", k)
	}
	for _, tc := range []struct {
		k    core.Kernel
		c    Class
		want bool
	}{
		{core.KernelSpan, Permutation, true},
		{core.KernelSpan, ZeroOne, false},
		{core.KernelSpanSharded, Permutation, true},
		{core.KernelSpanSharded, ZeroOne, false},
		{core.KernelSliced, ZeroOne, true},
		{core.KernelSliced, Permutation, false},
		{core.KernelGeneric, Permutation, true},
		{core.KernelGeneric, ZeroOne, true},
		{core.KernelAuto, Permutation, false},
	} {
		if got := Supports(tc.k, tc.c); got != tc.want {
			t.Errorf("Supports(%s, %s) = %v, want %v", core.KernelName(tc.k), tc.c, got, tc.want)
		}
	}
	order := Eligible(Permutation)
	if len(order) != 3 || order[0].ID != core.KernelSpan || order[1].ID != core.KernelSpanSharded || order[2].ID != core.KernelGeneric {
		t.Fatalf("permutation eligibility order wrong: %+v", order)
	}
}

// TestShardedGate pins that the sharded span executor is never chosen
// automatically: with no hint, override or calibration, a 1024×1024
// permutation batch — the largest side it was measured at, with no win
// beyond the spread (DESIGN.md §12) — resolves to the serial span kernel
// on every host, whatever its CPU count. A hint still pins it.
func TestShardedGate(t *testing.T) {
	t.Setenv(EnvKernel, "")
	key := Key{Algorithm: "snake-a", Rows: 1024, Cols: 1024, Class: Permutation}
	if k := Fallback(key.Class); k != core.KernelSpan {
		t.Fatalf("permutation fallback = %v, want span", core.KernelName(k))
	}
	tu := NewTuner("")
	if k := tu.Resolve(core.KernelAuto, key, nil); k != core.KernelSpan {
		t.Fatalf("auto resolve at 1024x1024 = %v, want span", core.KernelName(k))
	}
	if k := tu.Resolve(core.KernelSpanSharded, key, nil); k != core.KernelSpanSharded {
		t.Fatalf("hinted resolve = %v, want span-sharded", core.KernelName(k))
	}
}

// fakeProbe returns synthetic fixed timings per kernel name, so the
// calibration outcome — and the persisted table — is deterministic.
func fakeProbe(ns map[string]float64) Probe {
	return func(k core.Kernel) (float64, error) {
		v, ok := ns[core.KernelName(k)]
		if !ok {
			return 0, errors.New("no timing")
		}
		return v, nil
	}
}

// TestTunerGoldenTable pins the calibration table's on-disk format: a
// calibration run with synthetic timings must write exactly the bytes of
// testdata/tuner_table.json, and a fresh tuner must load them back and
// honor the recorded choice without re-probing.
func TestTunerGoldenTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuner.json")
	tu := NewTuner(path)
	permKey := Key{Algorithm: "snake-a", Rows: 32, Cols: 32, Class: Permutation}
	zoKey := Key{Algorithm: "snake-a", Rows: 32, Cols: 32, Class: ZeroOne}
	if k, err := tu.Calibrate(permKey, fakeProbe(map[string]float64{
		"span": 350000, "generic": 2800000,
	})); err != nil || k != core.KernelSpan {
		t.Fatalf("permutation calibration = %v, %v", k, err)
	}
	if k, err := tu.Calibrate(zoKey, fakeProbe(map[string]float64{
		"sliced": 25000, "generic": 400000,
	})); err != nil || k != core.KernelSliced {
		t.Fatalf("zeroone calibration = %v, %v", k, err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tuner_table.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("calibration table format changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A fresh tuner must reload the table and serve the choice from it —
	// the probe must not run again.
	reloaded := NewTuner(path)
	poison := Probe(func(core.Kernel) (float64, error) {
		t.Fatal("probe called despite a cached calibration")
		return 0, nil
	})
	if k := reloaded.Resolve(core.KernelAuto, permKey, poison); k != core.KernelSpan {
		t.Fatalf("reloaded resolve = %v, want span", k)
	}
}

// TestTableBeatsPriors pins that a calibrated choice overrides the static
// priors: with synthetic timings making the generic kernel fastest, Auto
// must resolve to generic, not the span fallback.
func TestTableBeatsPriors(t *testing.T) {
	tu := NewTuner("")
	key := Key{Algorithm: "rm-rf", Rows: 8, Cols: 8, Class: Permutation}
	if k, err := tu.Calibrate(key, fakeProbe(map[string]float64{
		"span": 900, "generic": 100,
	})); err != nil || k != core.KernelGeneric {
		t.Fatalf("calibration = %v, %v", k, err)
	}
	if k := tu.Resolve(core.KernelAuto, key, nil); k != core.KernelGeneric {
		t.Fatalf("resolve = %v, want calibrated generic", k)
	}
	// An explicit hint still wins over the table.
	if k := tu.Resolve(core.KernelSpan, key, nil); k != core.KernelSpan {
		t.Fatalf("hinted resolve = %v, want span", k)
	}
}

// TestEnvKernelOverride pins the determinism knob: MESHSORT_KERNEL
// forces auto-resolved batches to one kernel, is ignored when it does not
// serve the class or names nonsense or a retired kernel, and never beats
// an explicit hint.
func TestEnvKernelOverride(t *testing.T) {
	tu := NewTuner("")
	permKey := Key{Algorithm: "snake-b", Rows: 6, Cols: 6, Class: Permutation}

	t.Setenv(EnvKernel, "generic")
	if k := tu.Resolve(core.KernelAuto, permKey, nil); k != core.KernelGeneric {
		t.Fatalf("override resolve = %v, want generic", k)
	}
	if k := tu.Resolve(core.KernelSpan, permKey, nil); k != core.KernelSpan {
		t.Fatalf("hint under override = %v, want span", k)
	}

	// Ignored: a kernel of the other class (sliced), nonsense, and the
	// retired cell-packed and threshold-sliced kernels.
	for _, name := range []string{"sliced", "warp-drive", "packed", "threshold"} {
		t.Setenv(EnvKernel, name)
		if k := tu.Resolve(core.KernelAuto, permKey, nil); k != core.KernelSpan {
			t.Fatalf("override %q resolve = %v, want span fallback", name, k)
		}
	}
	t.Setenv(EnvKernel, "packed")
	zoKey := Key{Algorithm: "snake-b", Rows: 6, Cols: 6, Class: ZeroOne}
	if k := tu.Resolve(core.KernelAuto, zoKey, nil); k != core.KernelSliced {
		t.Fatalf("override packed on a 0-1 batch = %v, want sliced fallback", k)
	}
}

// retiredTable is a persisted calibration table whose choices name the
// retired cell-packed and threshold-sliced kernels.
const retiredTable = `{"version": 1, "entries": {
  "snake-a/32x32/permutation": {"kernel": "threshold"},
  "snake-a/32x32/zeroone": {"kernel": "packed"}}}`

// TestTunerTableRetiredKernelFallsThrough pins that a persisted choice
// naming a retired kernel is treated like any unknown name: the batch
// gets the static default of its class.
func TestTunerTableRetiredKernelFallsThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "retired.json")
	if err := os.WriteFile(path, []byte(retiredTable), 0o644); err != nil {
		t.Fatal(err)
	}
	tu := NewTuner(path)
	for class, want := range map[Class]core.Kernel{Permutation: core.KernelSpan, ZeroOne: core.KernelSliced} {
		key := Key{Algorithm: "snake-a", Rows: 32, Cols: 32, Class: class}
		if k := tu.Resolve(core.KernelAuto, key, nil); k != want {
			t.Errorf("%s: resolve = %v, want %v", key, core.KernelName(k), core.KernelName(want))
		}
	}
}

func TestTuningEnabled(t *testing.T) {
	for val, want := range map[string]bool{"": false, "0": false, "off": false, "1": true, "on": true} {
		t.Setenv(EnvTune, val)
		if got := TuningEnabled(); got != want {
			t.Errorf("TuningEnabled with %q = %v, want %v", val, got, want)
		}
	}
}

func TestCalibrateAllProbesFail(t *testing.T) {
	tu := NewTuner("")
	key := Key{Algorithm: "snake-a", Rows: 4, Cols: 4, Class: ZeroOne}
	k, err := tu.Calibrate(key, fakeProbe(nil))
	if err == nil || k != core.KernelSliced {
		t.Fatalf("all-fail calibration = %v, %v; want sliced fallback with error", k, err)
	}
	if len(tu.Table().Entries) != 0 {
		t.Fatal("failed calibration recorded an entry")
	}
}

// TestTunerDiscardsStaleTable pins version gating: a table with another
// version is ignored, never trusted.
func TestTunerDiscardsStaleTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(path, []byte(`{"version": 99, "entries": {"x": {"kernel": "generic"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tu := NewTuner(path)
	if got := len(tu.Table().Entries); got != 0 {
		t.Fatalf("stale table loaded %d entries", got)
	}
}

// FuzzTunerTable feeds arbitrary bytes to the calibration table loader:
// NewTuner must never panic, and auto-resolution against whatever it
// loaded must still return a kernel serving the batch's class.
func FuzzTunerTable(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "tuner_table.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(retiredTable))
	f.Add([]byte(`{"version": 99, "entries": {"snake-a/32x32/permutation": {"kernel": "generic"}}}`))
	f.Add(golden[:len(golden)/2])
	f.Setenv(EnvKernel, "")
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "tuner.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tu := NewTuner(path)
		for _, class := range []Class{Permutation, ZeroOne} {
			key := Key{Algorithm: "snake-a", Rows: 32, Cols: 32, Class: class}
			if k := tu.Resolve(core.KernelAuto, key, nil); !Supports(k, class) {
				t.Fatalf("%s: resolved %s, which does not serve the class", key, core.KernelName(k))
			}
		}
	})
}
