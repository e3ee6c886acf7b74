package mcbatch

import (
	"testing"

	"repro/internal/core"
)

// TestHashGoldenVectors pins Spec.Hash to fixed hex digests. These keys
// are durable identities now: they name records in the on-disk result
// store (internal/store) and campaign cells across daemon restarts, so
// any change to the encoding — field order, defaulting, the version tag —
// silently orphans every stored result. If this test fails, you have
// changed the content-address format: bump hashVersion deliberately and
// regenerate the vectors, knowing old stores will re-execute from scratch.
func TestHashGoldenVectors(t *testing.T) {
	vectors := []struct {
		name string
		spec Spec
		want string
	}{
		{
			// Seed 0 resolves to the canonical seed 1 — same digest as the
			// explicit-seed vector below.
			name: "snake-a 8x8 default seed",
			spec: Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 16},
			want: "aa1d55a528fa7bb5fbafef5ef63860af610dfb38bfd833c8bc43efecfa6000d3",
		},
		{
			name: "snake-a 8x8 seed 1",
			spec: Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 16, Seed: 1},
			want: "aa1d55a528fa7bb5fbafef5ef63860af610dfb38bfd833c8bc43efecfa6000d3",
		},
		{
			name: "rm-rf rectangular",
			spec: Spec{Algorithm: core.RowMajorRowFirst, Rows: 4, Cols: 6, Trials: 10, Seed: 7},
			want: "9f18d30d7a4ec56549a15c512606ef3a818aea2ddec47c0b7dc3e7ce6ca124a0",
		},
		{
			name: "rm-cf explicit step cap",
			spec: Spec{Algorithm: core.RowMajorColFirst, Rows: 10, Cols: 10, Trials: 8, Seed: 3, MaxSteps: 500},
			want: "6e75fdebbaef14ee9a4fc155d255745b97e2cfc6034805006042f3f7abe59c92",
		},
		{
			name: "snake-b zero trials",
			spec: Spec{Algorithm: core.SnakeB, Rows: 12, Cols: 12, Trials: 0, Seed: 9},
			want: "4ce924c7ae8a70943b703798d47425d36f5615d33b65b92bc28ca211b9c44e51",
		},
		{
			name: "snake-c zeroone workload",
			spec: Spec{Algorithm: core.SnakeC, Rows: 16, Cols: 16, Trials: 32, Seed: 42, ZeroOne: true},
			want: "2ab93e8ac1af78db51d93c768b9b34686f66a74332d04a8337cf7524967d0ec8",
		},
	}
	for _, v := range vectors {
		key, err := v.spec.Hash()
		if err != nil {
			t.Errorf("%s: Hash() error: %v", v.name, err)
			continue
		}
		if got := key.String(); got != v.want {
			t.Errorf("%s: digest drifted\n  got  %s\n  want %s", v.name, got, v.want)
		}
	}
	if vectors[0].want != vectors[1].want {
		t.Error("golden vectors for seed 0 and seed 1 must be identical (canonical seed)")
	}

	// Execution hints never reach the digest: the hinted spec must map to
	// the pinned vector, not a new one.
	hinted := vectors[2].spec
	hinted.Workers = 7
	hinted.Kernel = core.KernelSpan
	key, err := hinted.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if key.String() != vectors[2].want {
		t.Errorf("execution hints changed the digest: %s", key)
	}
}
