package mcbatch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/engine"
)

// Key is the canonical content address of a batch Spec: two Specs hash to
// the same Key exactly when Run is guaranteed to produce bit-identical
// Batch results for them. It is the cache key of the trial-serving daemon
// (internal/serve) and the subject of the cache-key contract documented in
// docs/INVARIANTS.md.
type Key [sha256.Size]byte

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ErrNotHashable is wrapped by Hash when a Spec carries a functional field
// (a custom Gen) that has no canonical encoding.
var ErrNotHashable = errors.New("mcbatch: Spec has no canonical encoding")

// hashVersion tags the encoding so a future field addition cannot
// silently collide with today's keys.
const hashVersion = "mcbatch/spec/v1\x00"

// Hash returns the canonical content address of the batch described by s.
//
// The encoding is a fixed-order, length-delimited fold of exactly the
// fields that determine Run's results, with every defaulted field resolved
// first, so distinct Specs describing the same batch hash identically:
//
//   - Seed 0 resolves to 1 and MaxSteps 0 to engine.DefaultMaxSteps, as in
//     Run.
//   - Stream is folded as the resolved per-trial stream ids (the only
//     values a Run can observe), so a nil Stream and an override that
//     reproduces DefaultStream hash the same, while any override that
//     deviates on some trial index hashes differently.
//   - TrialOffset is folded through the stream ids, not as a field: the
//     ids of the global trials [TrialOffset, TrialOffset+Trials) are what
//     get hashed. A trial's result depends only on (Seed, stream id), so
//     two Specs whose resolved id sequences coincide — e.g. different
//     offsets under a constant Stream — genuinely produce identical
//     Batches and correctly share a key, while under DefaultStream every
//     distinct offset selects distinct ids and therefore a distinct key.
//     Offset-zero Specs hash exactly as before this field existed.
//   - Workers, Kernel, and Shards are excluded: the determinism contract
//     (pinned by the mcbatch and engine differential suites) makes results
//     bit-identical under every worker count, executor family, and
//     intra-trial shard count.
//
// A Spec with a custom Gen returns an error wrapping ErrNotHashable: an
// arbitrary generator function cannot be canonically encoded, so such
// batches are not content-addressable (and not cacheable).
func (s Spec) Hash() (Key, error) {
	if s.Gen != nil {
		return Key{}, fmt.Errorf("%w: custom Gen functions are not encodable", ErrNotHashable)
	}
	if s.Trials < 0 {
		return Key{}, fmt.Errorf("mcbatch: negative trial count %d", s.Trials)
	}
	if s.Rows < 1 || s.Cols < 1 {
		return Key{}, fmt.Errorf("mcbatch: invalid mesh %dx%d", s.Rows, s.Cols)
	}
	if s.TrialOffset < 0 {
		return Key{}, fmt.Errorf("mcbatch: negative trial offset %d", s.TrialOffset)
	}
	if err := s.CheckTrialRange(); err != nil {
		return Key{}, err
	}

	h := sha256.New()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putStr := func(v string) {
		putU64(uint64(len(v)))
		h.Write([]byte(v))
	}

	putStr(hashVersion)
	putStr(s.Algorithm.ShortName())
	putU64(uint64(s.Rows))
	putU64(uint64(s.Cols))
	putU64(uint64(s.Trials))
	putU64(CanonicalSeed(s.Seed))
	putU64(uint64(CanonicalMaxSteps(s.MaxSteps, s.Rows, s.Cols)))
	if s.ZeroOne {
		putU64(1)
	} else {
		putU64(0)
	}
	stream := s.Stream
	if stream == nil {
		stream = DefaultStream(s.Algorithm, s.Rows)
	}
	for i := 0; i < s.Trials; i++ {
		putU64(stream(s.TrialOffset + i))
	}

	var k Key
	h.Sum(k[:0])
	return k, nil
}

// CanonicalSeed resolves the Spec.Seed zero value the way Run does.
func CanonicalSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// CanonicalMaxSteps resolves the Spec.MaxSteps zero value the way the
// engine does for an R×C mesh.
func CanonicalMaxSteps(maxSteps, rows, cols int) int {
	if maxSteps == 0 {
		return engine.DefaultMaxSteps(rows, cols)
	}
	return maxSteps
}
