package report

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/mcbatch"
)

// TestSpecJSONFieldNames pins the spec echo of the meshsortd result
// payloads: renaming a json tag is a breaking change to the API and to
// every stored payload, and this test is the tripwire. Every field is
// set, so every tag is pinned, and the execution hints are set too, so
// the test also pins that they never reach the encoding.
func TestSpecJSONFieldNames(t *testing.T) {
	spec := mcbatch.Spec{
		Algorithm: core.SnakeC, Rows: 4, Cols: 6, Trials: 9, TrialOffset: 128,
		Seed: 42, MaxSteps: 77, ZeroOne: true,
		Kernel: core.KernelSliced, Workers: 3,
	}
	buf, err := json.Marshal(CanonicalSpecOf(spec))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"algorithm":"snake-c","rows":4,"cols":6,"trials":9,"trial_offset":128,"seed":42,"max_steps":77,"zeroone":true}`
	if string(buf) != want {
		t.Fatalf("CanonicalSpecOf encoding drifted:\n got %s\nwant %s", buf, want)
	}
}

// TestCanonicalSpecOfMatchesHashContract checks that hash-equal Specs
// produce identical canonical encodings.
func TestCanonicalSpecOfMatchesHashContract(t *testing.T) {
	a := mcbatch.Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 10}
	b := mcbatch.Spec{
		Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 10, Seed: 1,
		MaxSteps: mcbatch.CanonicalMaxSteps(0, 8, 8),
		Kernel:   core.KernelGeneric, Workers: 5,
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("test premise broken: specs are meant to hash equal")
	}
	if CanonicalSpecOf(a) != CanonicalSpecOf(b) {
		t.Fatalf("hash-equal specs encode differently:\n%+v\n%+v", CanonicalSpecOf(a), CanonicalSpecOf(b))
	}
}
