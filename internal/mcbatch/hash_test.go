package mcbatch

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/workload"
)

func mustHash(t *testing.T, s Spec) Key {
	t.Helper()
	k, err := s.Hash()
	if err != nil {
		t.Fatalf("Hash(%+v): %v", s, err)
	}
	return k
}

// TestHashCanonicalization pins the cache-key contract: every defaulted
// field resolves before hashing, and the fields that cannot change results
// (Workers, Kernel) are excluded.
func TestHashCanonicalization(t *testing.T) {
	base := Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 40, Seed: 11}
	want := mustHash(t, base)

	t.Run("workers-insensitive", func(t *testing.T) {
		for _, w := range []int{0, 1, 8} {
			s := base
			s.Workers = w
			if got := mustHash(t, s); got != want {
				t.Fatalf("Workers=%d changed the hash: %s vs %s", w, got, want)
			}
		}
	})
	t.Run("kernel-insensitive", func(t *testing.T) {
		for _, k := range []core.Kernel{core.KernelAuto, core.KernelGeneric, core.KernelSpan, core.KernelSpanSharded, core.KernelSliced} {
			s := base
			s.Kernel = k
			if got := mustHash(t, s); got != want {
				t.Fatalf("Kernel=%v changed the hash", k)
			}
		}
	})
	t.Run("zeroone-kernel-insensitive", func(t *testing.T) {
		// The 0-1 kernel families must also share one cache entry: a
		// meshsortd job asking for the sliced kernel and one asking for the
		// generic engine are the same content-addressed batch.
		zo := base
		zo.ZeroOne = true
		zoWant := mustHash(t, zo)
		for _, k := range []core.Kernel{core.KernelGeneric, core.KernelSpan, core.KernelSliced} {
			s := zo
			s.Kernel = k
			if got := mustHash(t, s); got != zoWant {
				t.Fatalf("ZeroOne Kernel=%s changed the hash", core.KernelName(k))
			}
		}
	})
	t.Run("seed-zero-resolves-to-one", func(t *testing.T) {
		zero, one := base, base
		zero.Seed, one.Seed = 0, 1
		if mustHash(t, zero) != mustHash(t, one) {
			t.Fatal("Seed=0 and Seed=1 hash differently")
		}
		if mustHash(t, zero) == want {
			t.Fatal("Seed=1 and Seed=11 hash the same")
		}
	})
	t.Run("maxsteps-zero-resolves-to-default", func(t *testing.T) {
		resolved := base
		resolved.MaxSteps = engine.DefaultMaxSteps(base.Rows, base.Cols)
		if mustHash(t, resolved) != want {
			t.Fatal("MaxSteps=0 and MaxSteps=DefaultMaxSteps hash differently")
		}
		tight := base
		tight.MaxSteps = 7
		if mustHash(t, tight) == want {
			t.Fatal("an explicit non-default MaxSteps did not change the hash")
		}
	})
}

// TestHashStreamCanonicalization proves the hash is insensitive to a
// Stream override exactly when the override matches DefaultStream on every
// trial index the batch can evaluate — and sensitive as soon as it
// deviates on one.
func TestHashStreamCanonicalization(t *testing.T) {
	base := Spec{Algorithm: core.RowMajorColFirst, Rows: 6, Cols: 10, Trials: 25, Seed: 3}
	want := mustHash(t, base)

	matching := base
	matching.Stream = DefaultStream(base.Algorithm, base.Rows)
	if got := mustHash(t, matching); got != want {
		t.Fatalf("a Stream override matching DefaultStream changed the hash: %s vs %s", got, want)
	}

	// Rebuilding the same mapping through a different closure must still
	// canonicalize: only the resolved ids matter.
	def := DefaultStream(base.Algorithm, base.Rows)
	rebuilt := base
	rebuilt.Stream = func(trial int) uint64 { return def(trial) + 0 }
	if mustHash(t, rebuilt) != want {
		t.Fatal("an extensionally equal Stream closure changed the hash")
	}

	deviating := base
	deviating.Stream = func(trial int) uint64 {
		if trial == base.Trials-1 {
			return def(trial) + 1
		}
		return def(trial)
	}
	if mustHash(t, deviating) == want {
		t.Fatal("a Stream deviating on one trial index did not change the hash")
	}
}

// TestHashDistinguishesResultChangingFields spot-checks that every field
// that can change results changes the key.
func TestHashDistinguishesResultChangingFields(t *testing.T) {
	base := Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 40, Seed: 11}
	want := mustHash(t, base)
	mutations := map[string]func(*Spec){
		"algorithm": func(s *Spec) { s.Algorithm = core.SnakeB },
		"rows":      func(s *Spec) { s.Rows = 10 },
		"cols":      func(s *Spec) { s.Cols = 10 },
		"trials":    func(s *Spec) { s.Trials = 41 },
		"seed":      func(s *Spec) { s.Seed = 12 },
		"zeroone":   func(s *Spec) { s.ZeroOne = true },
	}
	names := make([]string, 0, len(mutations))
	for name := range mutations {
		names = append(names, name)
	}
	for _, name := range names {
		s := base
		mutations[name](&s)
		if mustHash(t, s) == want {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

func TestHashRejectsCustomGen(t *testing.T) {
	s := Spec{
		Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 4, Seed: 1,
		Gen: func(src rng.Source, _ int) *grid.Grid { return workload.HalfZeroOne(src, 8, 8) },
	}
	if _, err := s.Hash(); !errors.Is(err, ErrNotHashable) {
		t.Fatalf("Hash with custom Gen: got %v, want ErrNotHashable", err)
	}
	if _, err := (Spec{Algorithm: core.SnakeA, Rows: 0, Cols: 8, Trials: 4}).Hash(); err == nil {
		t.Fatal("Hash accepted an invalid mesh")
	}
}

// TestRunCtxCancellation covers the serve-layer contract: a cancelled
// context stops the batch between trials and surfaces the context error.
func TestRunCtxCancellation(t *testing.T) {
	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunCtx(ctx, Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 16, Seed: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx on a cancelled context: got %v, want context.Canceled", err)
		}
	})
	t.Run("mid-batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ran := 0
		_, err := MapCtx(ctx, 1, 1000, func(i int) (int, error) {
			ran++
			if i == 2 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("MapCtx cancelled mid-batch: got %v, want context.Canceled", err)
		}
		// The single worker checks the context before claiming the next
		// index, so exactly indices 0..2 ran.
		if ran != 3 {
			t.Fatalf("cancelled batch ran %d trials, want 3", ran)
		}
	})
	t.Run("cancellation-wins-over-trial-errors", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := MapCtx(ctx, 1, 10, func(i int) (int, error) {
			if i == 1 {
				cancel()
				return 0, errors.New("trial error")
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
}
