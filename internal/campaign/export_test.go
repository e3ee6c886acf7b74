package campaign

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/mcbatch"
	"repro/internal/report"
	"repro/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.OpenOptions(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func smallSpec() Spec {
	return Spec{
		Name:       "small",
		Algorithms: []string{"snake-a", "rm-rf"},
		Sides:      []int{4, 6},
		Trials:     []int{6},
		Workloads:  []string{WorkloadPerm, WorkloadZeroOne},
		Seed:       11,
	}
}

// fill stores each of cells that st does not hold yet, the way the
// daemon persists a cell: mcbatch.RunCtx, report.BuildPayload, Put.
func fill(t *testing.T, st *store.Store, cells []Cell) {
	t.Helper()
	for _, c := range cells {
		if st.Has(c.Key) {
			continue
		}
		b, err := mcbatch.RunCtx(context.Background(), c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := report.BuildPayload(c.Spec, c.Key, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(c.Key, payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExportByteIdentityAcrossInterruption is the package-level half of
// the crash-resume acceptance criterion: a grid stored in pieces, out of
// order, exports byte-identically to the same grid stored in one
// in-order pass on a fresh store.
func TestExportByteIdentityAcrossInterruption(t *testing.T) {
	spec := smallSpec()
	_, cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	// Store A: three fragments (two interruptions), the last one in
	// reverse expansion order.
	stA := openStore(t)
	fill(t, stA, cells[5:])
	fill(t, stA, cells[:3])
	reversed := make([]Cell, len(cells))
	for i, c := range cells {
		reversed[len(cells)-1-i] = c
	}
	fill(t, stA, reversed)

	// Store B: one uninterrupted pass.
	stB := openStore(t)
	fill(t, stB, cells)

	jsonA, err := ExportJSON(spec, stA.Get)
	if err != nil {
		t.Fatal(err)
	}
	jsonB, err := ExportJSON(spec, stB.Get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonA, jsonB) {
		t.Fatalf("JSON exports differ across interruption history:\nA: %d bytes\nB: %d bytes", len(jsonA), len(jsonB))
	}
	csvA, err := ExportCSV(spec, stA.Get)
	if err != nil {
		t.Fatal(err)
	}
	csvB, err := ExportCSV(spec, stB.Get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvA, csvB) {
		t.Fatal("CSV exports differ across interruption history")
	}
}

func TestExportIncomplete(t *testing.T) {
	spec := smallSpec()
	_, cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t)
	fill(t, st, cells[:2])
	if _, err := ExportJSON(spec, st.Get); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("partial export returned %v, want ErrIncomplete", err)
	}
	if _, err := ExportCSV(spec, st.Get); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("partial CSV export returned %v, want ErrIncomplete", err)
	}
}

func TestExportShapes(t *testing.T) {
	spec := Spec{Algorithms: []string{"snake-a"}, Sides: []int{4}, Trials: []int{4}, Seed: 3}
	_, cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t)
	fill(t, st, cells)
	out, err := ExportJSON(spec, st.Get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"algorithm": "snake-a"`)) ||
		!bytes.Contains(out, []byte(`"steps"`)) {
		t.Fatalf("JSON export missing expected fields:\n%s", out)
	}
	csv, err := ExportCSV(spec, st.Get)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(csv), []byte("\n"))
	if len(lines) != 1+len(cells) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(cells), csv)
	}
	if !bytes.HasPrefix(lines[0], []byte("algorithm,side,trials,workload,seed,key,steps_mean")) {
		t.Fatalf("CSV header = %s", lines[0])
	}
}
