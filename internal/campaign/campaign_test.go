package campaign

import (
	"runtime"
	"strings"
	"testing"
)

func gridSpec() Spec {
	return Spec{
		Name:       "avg-case",
		Algorithms: []string{"snake-a", "rm-rf"},
		Sides:      []int{4, 8},
		Trials:     []int{8},
		Workloads:  []string{WorkloadPerm, WorkloadZeroOne},
		Seed:       7,
	}
}

func TestExpandOrderAndShape(t *testing.T) {
	_, cells, err := gridSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*1*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Nested order: algorithms, sides, trials, workloads.
	want := []string{
		"snake-a side=4 trials=8 perm",
		"snake-a side=4 trials=8 zeroone",
		"snake-a side=8 trials=8 perm",
		"snake-a side=8 trials=8 zeroone",
		"rm-rf side=4 trials=8 perm",
		"rm-rf side=4 trials=8 zeroone",
		"rm-rf side=8 trials=8 perm",
		"rm-rf side=8 trials=8 zeroone",
	}
	for i, c := range cells {
		if c.String() != want[i] {
			t.Fatalf("cell %d = %q, want %q", i, c, want[i])
		}
		if c.Spec.Rows != c.Side || c.Spec.Cols != c.Side || c.Spec.Seed != 7 {
			t.Fatalf("cell %d spec mismatch: %+v", i, c.Spec)
		}
		if (c.Workload == WorkloadZeroOne) != c.Spec.ZeroOne {
			t.Fatalf("cell %d workload/ZeroOne mismatch", i)
		}
		// The cell key is the batch's canonical hash — the store and the
		// daemon cache share entries.
		want, err := c.Spec.Hash()
		if err != nil || want != c.Key {
			t.Fatalf("cell %d key != Spec.Hash(): %v", i, err)
		}
	}
}

func TestExpandValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no algorithms", func(s *Spec) { s.Algorithms = nil }, "no algorithms"},
		{"no sides", func(s *Spec) { s.Sides = nil }, "no sides"},
		{"no trials", func(s *Spec) { s.Trials = nil }, "no trial counts"},
		{"bad algorithm", func(s *Spec) { s.Algorithms = []string{"nope"} }, "algorithm"},
		{"bad side", func(s *Spec) { s.Sides = []int{0} }, "invalid side"},
		{"bad trials", func(s *Spec) { s.Trials = []int{-1} }, "invalid trial count"},
		{"bad workload", func(s *Spec) { s.Workloads = []string{"gauss"} }, "unknown workload"},
		{"duplicate cells", func(s *Spec) { s.Sides = []int{4, 4} }, "duplicate cell"},
		{"negative max_steps", func(s *Spec) { s.MaxSteps = -1 }, "max_steps must be >= 0"},
		{"trials past the stream range", func(s *Spec) { s.Trials = []int{1<<32 + 1} }, "trial range"},
	}
	for _, tc := range cases {
		s := gridSpec()
		tc.mut(&s)
		if _, _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestExpandDefaultWorkload(t *testing.T) {
	s := gridSpec()
	s.Workloads = nil
	_, cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Workload != WorkloadPerm || c.Spec.ZeroOne {
			t.Fatalf("default workload cell %s not perm", c)
		}
	}
}

func TestIDContentAddressing(t *testing.T) {
	a, _, err := gridSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := gridSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same spec, different IDs: %s vs %s", a, b)
	}
	if !strings.HasPrefix(a, "c-") || len(a) != 2+32 {
		t.Fatalf("ID %q has the wrong shape", a)
	}

	// Every identity-bearing change moves the ID.
	mutations := []func(*Spec){
		func(s *Spec) { s.Name = "other" },
		func(s *Spec) { s.Algorithms = []string{"snake-a"} },
		func(s *Spec) { s.Sides = []int{4, 16} },
		func(s *Spec) { s.Trials = []int{9} },
		func(s *Spec) { s.Workloads = []string{WorkloadPerm} },
		func(s *Spec) { s.Seed = 8 },
		func(s *Spec) { s.MaxSteps = 100000 },
	}
	for i, mut := range mutations {
		s := gridSpec()
		mut(&s)
		got, _, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if got == a {
			t.Errorf("mutation %d did not change the ID", i)
		}
	}

	// Seed 0 and the canonical seed 1 are the same campaign, like the
	// cell hashes they fold.
	s0, s1 := gridSpec(), gridSpec()
	s0.Seed, s1.Seed = 0, 1
	id0, _, _ := s0.Expand()
	id1, _, _ := s1.Expand()
	if id0 != id1 {
		t.Fatal("seed 0 and canonical seed 1 produced different IDs")
	}
}

// TestExpandRejectsOddColumnRowMajor: the row-major algorithms need an
// even column count, so a grid naming one at an odd side fails to
// expand instead of panicking later on the daemon's campaign goroutine.
func TestExpandRejectsOddColumnRowMajor(t *testing.T) {
	s := Spec{Algorithms: []string{"snake-a", "rm-rf"}, Sides: []int{8, 15}, Trials: []int{4}}
	if _, _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "even number of columns") {
		t.Fatalf("Expand = %v, want an even-columns error", err)
	}
	s.Algorithms = []string{"snake-a", "shearsort"}
	if _, _, err := s.Expand(); err != nil {
		t.Fatalf("odd sides for snake-a and shearsort: %v", err)
	}
}

// TestExpandBoundsTheGrid: a grid past MaxCells is refused before
// anything is sized for it. 2,000 repeated sides × 2,000 repeated trial
// counts, an 8 KB request body, would otherwise allocate a cell slice and
// a key set for 4,000,000 cells before reading a value.
func TestExpandBoundsTheGrid(t *testing.T) {
	s := Spec{Algorithms: []string{"snake-a"}, Sides: make([]int, 2000), Trials: make([]int, 2000)}
	for i := range s.Sides {
		s.Sides[i], s.Trials[i] = 4, 8
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := s.Expand()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "4096-cell limit") {
		t.Fatalf("Expand = %v, want the cell-limit error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the grid allocated %d bytes, want under 1 MB", got)
	}

	// The bound itself is allowed: 64 sides × 64 trial counts.
	s = Spec{Algorithms: []string{"snake-a"}, Sides: make([]int, 64), Trials: make([]int, 64)}
	for i := range s.Sides {
		s.Sides[i], s.Trials[i] = i+1, i+1
	}
	if _, cells, err := s.Expand(); err != nil || len(cells) != MaxCells {
		t.Fatalf("a %d-cell grid: %d cells, err %v", MaxCells, len(cells), err)
	}
	// Twice as many is over it.
	s.Algorithms = []string{"snake-a", "shearsort"}
	if _, _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "4096-cell limit") {
		t.Fatalf("a %d-cell grid: err %v, want the cell-limit error", 2*MaxCells, err)
	}
}
