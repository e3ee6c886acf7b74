package report

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mcbatch"
)

var updatePayloadGolden = flag.Bool("update", false, "regenerate testdata/payload_golden.json from the current code")

const payloadGoldenPath = "testdata/payload_golden.json"

// payloadGolden is the committed answer key: the sha256 of every golden
// spec's payload bytes, and the per-trial "steps:swaps" vectors of the
// specs goldenSpecs marks, so a failure names the trial that moved.
type payloadGolden struct {
	Payloads map[string]string `json:"payloads"`
	Trials   map[string]string `json:"trials"`
}

type goldenSpec struct {
	name  string
	spec  mcbatch.Spec
	trace bool // keep the per-trial vector
}

// goldenSpecs is the grid the golden pins: every algorithm of
// core.AllAlgorithms on permutation and 0-1 inputs, shapes 1×8, 2×2, 8×8
// and 16×16 (plus 3×3 and 7×9 where the algorithm allows odd columns),
// 1, 63, 64 and 65 trials, seeds 1 and 7919, and one 64-aligned
// TrialOffset per input class.
func goldenSpecs() []goldenSpec {
	var out []goldenSpec
	add := func(spec mcbatch.Spec, trace bool) {
		class := "perm"
		if spec.ZeroOne {
			class = "zeroone"
		}
		name := fmt.Sprintf("%s/%s/%dx%d/trials=%d/seed=%d", spec.Algorithm.ShortName(), class,
			spec.Rows, spec.Cols, spec.Trials, spec.Seed)
		if spec.TrialOffset != 0 {
			name += fmt.Sprintf("/offset=%d", spec.TrialOffset)
		}
		out = append(out, goldenSpec{name: name, spec: spec, trace: trace})
	}
	for _, alg := range core.AllAlgorithms() {
		shapes := [][2]int{{1, 8}, {2, 2}, {8, 8}, {16, 16}}
		if alg.Order() != grid.RowMajor {
			shapes = append(shapes, [2]int{3, 3}, [2]int{7, 9})
		}
		for _, zeroOne := range []bool{false, true} {
			for _, shape := range shapes {
				for _, trials := range []int{1, 63, 64, 65} {
					for _, seed := range []uint64{1, 7919} {
						trace := trials == 65 && seed == 1 && shape[1] == 8
						add(mcbatch.Spec{Algorithm: alg, Rows: shape[0], Cols: shape[1],
							Trials: trials, Seed: seed, ZeroOne: zeroOne}, trace)
					}
				}
			}
		}
	}
	add(mcbatch.Spec{Algorithm: core.SnakeB, Rows: 8, Cols: 8, Trials: 65, Seed: 7919, TrialOffset: 64}, false)
	add(mcbatch.Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 65, Seed: 7919, TrialOffset: 64, ZeroOne: true}, false)
	return out
}

// computePayloadGolden runs every golden spec through mcbatch.RunCtx and
// report.BuildPayload, the path meshsortd serves and the store persists.
func computePayloadGolden(t *testing.T) payloadGolden {
	t.Helper()
	got := payloadGolden{Payloads: map[string]string{}, Trials: map[string]string{}}
	for _, gs := range goldenSpecs() {
		key, err := gs.spec.Hash()
		if err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
		b, err := mcbatch.RunCtx(context.Background(), gs.spec)
		if err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
		payload, err := BuildPayload(gs.spec, key, b)
		if err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
		sum := sha256.Sum256(payload)
		got.Payloads[gs.name] = hex.EncodeToString(sum[:])
		if gs.trace {
			cells := make([]string, len(b.Trials))
			for i, tr := range b.Trials {
				cells[i] = fmt.Sprintf("%d:%d", tr.Steps, tr.Swaps)
			}
			got.Trials[gs.name] = strings.Join(cells, " ")
		}
	}
	return got
}

// TestPayloadGolden pins what every golden spec computes, byte for byte:
// Spec.Hash pins the content address, and this pins the payload a store
// serves under it. A difference is a behaviour change, never noise. Run
// `go test ./internal/report/ -run TestPayloadGolden -update` to
// regenerate the file, and record the change in CHANGES.md together with
// how old store records stop being served (docs/INVARIANTS.md).
func TestPayloadGolden(t *testing.T) {
	got := computePayloadGolden(t)
	if *updatePayloadGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(payloadGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d payloads, %d trial vectors", payloadGoldenPath, len(got.Payloads), len(got.Trials))
		return
	}
	raw, err := os.ReadFile(payloadGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want payloadGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", payloadGoldenPath, err)
	}
	for _, name := range sortedKeys(want.Trials) {
		if msg := diffTrials(want.Trials[name], got.Trials[name]); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
	for _, name := range sortedKeys(want.Payloads) {
		if g, ok := got.Payloads[name]; !ok {
			t.Errorf("%s: golden spec no longer generated", name)
		} else if g != want.Payloads[name] {
			t.Errorf("%s: payload sha256 %s, golden %s", name, g, want.Payloads[name])
		}
	}
	for _, name := range sortedKeys(got.Payloads) {
		if _, ok := want.Payloads[name]; !ok {
			t.Errorf("%s: spec missing from the golden; regenerate with -update", name)
		}
	}
}

// diffTrials names the first trial whose "steps:swaps" cell differs.
func diffTrials(want, got string) string {
	w, g := strings.Fields(want), strings.Fields(got)
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("trial %d: steps:swaps %s, golden %s", i, g[i], w[i])
		}
	}
	if len(w) != len(g) {
		return fmt.Sprintf("%d trials, golden %d", len(g), len(w))
	}
	return ""
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBuildPayloadExactSize pins that a payload carries no spare
// capacity: the job registry and the result cache keep thousands of them.
func TestBuildPayloadExactSize(t *testing.T) {
	spec := mcbatch.Spec{Algorithm: core.SnakeA, Rows: 32, Cols: 32, Trials: 128, Seed: 1, ZeroOne: true}
	key, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mcbatch.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := BuildPayload(spec, key, b)
	if err != nil {
		t.Fatal(err)
	}
	if cap(payload) != len(payload) {
		t.Fatalf("payload of %d bytes sits in a %d-byte buffer", len(payload), cap(payload))
	}
}
