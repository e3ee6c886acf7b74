package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for splitmix64 with seed 0 (from the public domain
	// reference implementation by Sebastiano Vigna).
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestPCG64Deterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestPCG64SeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 1000", same)
	}
}

func TestPCG64StreamsDiffer(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 produced %d identical draws out of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := Intn(s, n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	Intn(New(1), 0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared goodness of fit over 10 buckets. With 100000 draws the
	// statistic should be far below the df=9 critical value at alpha=1e-6.
	const n = 10
	const draws = 100000
	s := New(99)
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[Intn(s, n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 50 { // critical value chi2(9, 1e-6) ~ 46.7
		t.Fatalf("chi-squared = %v too large; counts=%v", chi2, counts)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 10, 100, 1024} {
		out := make([]int, n)
		Perm(s, out)
		seen := make([]bool, n+1)
		for _, v := range out {
			if v < 1 || v > n {
				t.Fatalf("n=%d: value %d out of range", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of a uniform permutation of 1..n is uniform on 1..n.
	const n = 8
	const draws = 80000
	s := New(11)
	counts := make([]int, n+1)
	out := make([]int, n)
	for i := 0; i < draws; i++ {
		Perm(s, out)
		counts[out[0]]++
	}
	expected := float64(draws) / n
	for v := 1; v <= n; v++ {
		if math.Abs(float64(counts[v])-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("value %d appeared %d times, expected ~%v", v, counts[v], expected)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		p := make([]int, len(raw))
		sum := 0
		for i, b := range raw {
			p[i] = int(b)
			sum += int(b)
		}
		Shuffle(New(seed), p)
		got := 0
		for _, v := range p {
			got += v
		}
		return got == sum && len(p) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(17)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := Float64(s)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func BenchmarkPCG64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkPerm1024(b *testing.B) {
	s := New(1)
	out := make([]int, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Perm(s, out)
	}
}

// shuffleMatches checks that p.ShuffleBytes permutes n distinct bytes
// exactly as Shuffle permutes n distinct ints from a copy of p, and
// leaves p in the same state.
func shuffleMatches(t *testing.T, p PCG64, n int) {
	t.Helper()
	q := p
	ints := make([]int, n)
	bytes := make([]byte, n)
	for i := range ints {
		ints[i] = i
		bytes[i] = byte(i)
	}
	Shuffle(&q, ints)
	p.ShuffleBytes(bytes)
	for i := range ints {
		if int(bytes[i]) != ints[i] {
			t.Fatalf("n=%d: ShuffleBytes = %v, Shuffle = %v", n, bytes, ints)
		}
	}
	if p != q {
		t.Fatalf("n=%d: state after ShuffleBytes %+v, after Shuffle %+v", n, p, q)
	}
}

// TestShuffleBytesMatchesShuffle pins ShuffleBytes to Shuffle's draws on
// many streams and lengths, up to 256 distinct bytes.
func TestShuffleBytesMatchesShuffle(t *testing.T) {
	for n := 0; n <= 256; n++ {
		for stream := uint64(0); stream < 4; stream++ {
			shuffleMatches(t, *NewStream(uint64(n), stream), n)
		}
	}
}

// TestShuffleBytesRejection drives Lemire's rejection branch: a state with
// hi == lo outputs 0, and 0·3 leaves a low product 0 below 2^64 mod 3 = 1,
// so the first draw for n = 3 must be resampled.
func TestShuffleBytesRejection(t *testing.T) {
	p := PCG64{hi: 0x0123456789abcdef, lo: 0x0123456789abcdef, incHi: 7, incLo: 0x9e3779b97f4a7c15}
	q, r := p, p
	if v := q.Uint64(); v != 0 {
		t.Fatalf("crafted state outputs %#x, want 0", v)
	}
	q.Uint64()
	if Intn(&r, 3); r != q {
		t.Fatal("Intn(3) on the crafted state did not draw exactly twice")
	}
	shuffleMatches(t, p, 3)
}

// TestSeedStreamMatchesNewStream: reseeding in place yields NewStream's
// generator, whatever state it held before.
func TestSeedStreamMatchesNewStream(t *testing.T) {
	p := *New(99)
	for _, c := range [][2]uint64{{1, 0x800000}, {7919, 1<<63 | 48<<36 | 2<<32 | 70000}, {0, 0}} {
		p.SeedStream(c[0], c[1])
		if want := NewStream(c[0], c[1]); p != *want {
			t.Fatalf("SeedStream(%d, %#x) = %+v, want %+v", c[0], c[1], p, *want)
		}
	}
}

func BenchmarkShuffle1024(b *testing.B) {
	s := New(1)
	p := make([]int, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shuffle(s, p)
	}
}

func BenchmarkShuffleBytes1024(b *testing.B) {
	s := New(1)
	p := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ShuffleBytes(p)
	}
}
