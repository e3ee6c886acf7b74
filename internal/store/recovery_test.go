package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mcbatch"
)

// writeSeedLog builds a store with n records and returns the raw log
// bytes plus the offset where the final record begins.
func writeSeedLog(t testing.TB, n int) (raw []byte, lastRecOff int64) {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	lastRecOff = s.size - recordHeaderSize - int64(len(testPayload(n-1)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return raw, lastRecOff
}

// TestRecoveryTruncationSweep is the crash-recovery exhaustion test: the
// log is cut at every byte offset of the final record (simulating a crash
// at any point of the append) and Open must recover the valid prefix —
// all earlier records intact, the torn record dropped, no error.
func TestRecoveryTruncationSweep(t *testing.T) {
	const n = 6
	raw, lastRecOff := writeSeedLog(t, n)

	for cut := lastRecOff; cut < int64(len(raw)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenOptions(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d (of %d): Open failed: %v", cut, len(raw), err)
		}
		st := s.Stats()
		if st.Entries != n-1 {
			t.Fatalf("cut at %d: recovered %d entries, want %d", cut, st.Entries, n-1)
		}
		if cut > lastRecOff && st.RecoveredBytes != cut-lastRecOff {
			t.Fatalf("cut at %d: RecoveredBytes = %d, want %d", cut, st.RecoveredBytes, cut-lastRecOff)
		}
		for i := 0; i < n-1; i++ {
			got, ok, err := s.Get(testKey(i))
			if err != nil || !ok || !bytes.Equal(got, testPayload(i)) {
				t.Fatalf("cut at %d: record %d damaged: %q ok=%v err=%v", cut, i, got, ok, err)
			}
		}
		if _, ok, _ := s.Get(testKey(n - 1)); ok {
			t.Fatalf("cut at %d: torn final record still served", cut)
		}
		// The truncated store accepts appends again and they survive.
		if err := s.Put(testKey(n-1), testPayload(n-1)); err != nil {
			t.Fatalf("cut at %d: Put after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{})
		if got, ok, _ := r.Get(testKey(n - 1)); !ok || !bytes.Equal(got, testPayload(n-1)) {
			t.Fatalf("cut at %d: re-appended record lost", cut)
		}
		r.Close()
	}
}

// TestRecoveryBitFlipInTail proves a checksum failure (not just a short
// read) also truncates: flip one payload byte of the final record.
func TestRecoveryBitFlipInTail(t *testing.T) {
	const n = 4
	raw, lastRecOff := writeSeedLog(t, n)
	corrupt := append([]byte(nil), raw...)
	corrupt[lastRecOff+recordHeaderSize] ^= 0x40 // first payload byte

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Entries != n-1 || st.RecoveredBytes == 0 {
		t.Fatalf("bit flip not truncated: %+v", st)
	}
}

// TestRecoveryInsaneLengthPrefix proves a corrupt length prefix is treated
// as a torn tail rather than a huge allocation.
func TestRecoveryInsaneLengthPrefix(t *testing.T) {
	raw, lastRecOff := writeSeedLog(t, 3)
	corrupt := append([]byte(nil), raw...)
	binary.BigEndian.PutUint32(corrupt[lastRecOff:], uint32(maxPayload+1))

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("insane length prefix: recovered %d entries, want 2", st.Entries)
	}
}

// FuzzStoreOpen writes arbitrary bytes as the record log and opens them.
// Open must not panic; it refuses, with ErrBadHeader, exactly the
// non-empty logs that lack the header. A log it accepts is one it can
// serve: every indexed key reads back, the logged size is the file's,
// and a close and reopen recovers nothing more and serves the same keys
// and payloads.
func FuzzStoreOpen(f *testing.F) {
	raw, lastRecOff := writeSeedLog(f, 3)
	badMagic := append([]byte(nil), raw...)
	badMagic[0] ^= 0xff
	insane := append([]byte(nil), raw...)
	binary.BigEndian.PutUint32(insane[lastRecOff:], uint32(maxPayload+1))
	for _, seed := range [][]byte{raw, raw[:len(raw)-5], badMagic, {}, insane} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenOptions(dir, Options{NoSync: true})
		if len(data) > 0 && !bytes.HasPrefix(data, logMagic[:]) {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("Open of a log without our header: %v, want ErrBadHeader", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open of a log with our header: %v", err)
		}
		want := storedPayloads(t, s)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.LogBytes != fi.Size() {
			t.Fatalf("Stats().LogBytes = %d, file holds %d", st.LogBytes, fi.Size())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenOptions(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen of a recovered log: %v", err)
		}
		defer r.Close()
		if st := r.Stats(); st.RecoveredBytes != 0 {
			t.Fatalf("reopen recovered %d more bytes", st.RecoveredBytes)
		}
		got := storedPayloads(t, r)
		if len(got) != len(want) {
			t.Fatalf("reopen serves %d keys, first open %d", len(got), len(want))
		}
		for k, p := range want {
			if !bytes.Equal(got[k], p) {
				t.Fatalf("key %s: reopen serves %q, first open %q", k, got[k], p)
			}
		}
	})
}

// storedPayloads reads every indexed key of s through Get, failing t
// when one does not read back.
func storedPayloads(t *testing.T, s *Store) map[mcbatch.Key][]byte {
	t.Helper()
	s.mu.RLock()
	keys := make([]mcbatch.Key, 0, len(s.idx))
	for k := range s.idx {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	out := make(map[mcbatch.Key][]byte, len(keys))
	for _, k := range keys {
		p, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("indexed key %s: Get ok=%v err=%v", k, ok, err)
		}
		out[k] = p
	}
	return out
}
