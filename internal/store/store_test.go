package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/mcbatch"
)

// testKey builds a distinct key from an integer.
func testKey(i int) mcbatch.Key {
	var k mcbatch.Key
	copy(k[:], fmt.Sprintf("key-%08d", i))
	return k
}

func testPayload(i int) []byte {
	return []byte(fmt.Sprintf("{\"cell\":%d,\"body\":%q}\n", i, bytes.Repeat([]byte{'x'}, i%17)))
}

func mustOpen(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatalf("OpenOptions(%q): %v", dir, err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Put(testKey(i), testPayload(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if got := s.Len(); got != 50 {
		t.Fatalf("Len = %d, want 50", got)
	}
	for i := 0; i < 50; i++ {
		got, ok, err := s.Get(testKey(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d) = ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("Get(%d) payload mismatch:\n got %q\nwant %q", i, got, testPayload(i))
		}
	}
	if _, ok, err := s.Get(testKey(999)); ok || err != nil {
		t.Fatalf("Get(absent) = ok=%v err=%v, want miss", ok, err)
	}
	if !s.Has(testKey(7)) || s.Has(testKey(999)) {
		t.Fatal("Has gave the wrong answer")
	}
}

func TestReopenPreservesEverything(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := s.Put(testKey(i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if st := r.Stats(); st.RecoveredBytes != 0 {
		t.Fatalf("clean reopen recovered %d bytes, want 0", st.RecoveredBytes)
	}
	for i := 0; i < 20; i++ {
		got, ok, err := r.Get(testKey(i))
		if err != nil || !ok || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("after reopen Get(%d) = %q ok=%v err=%v", i, got, ok, err)
		}
	}
}

func TestOverwriteLastWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	k := testKey(1)
	if err := s.Put(k, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, []byte("new-longer-payload")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.Get(k)
	if !ok || string(got) != "new-longer-payload" {
		t.Fatalf("Get after overwrite = %q ok=%v", got, ok)
	}
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
	if st.DeadBytes == 0 {
		t.Fatal("overwrite accounted no dead bytes")
	}
	s.Close()

	// The replay on reopen must apply records in order: last write wins.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	got, ok, _ = r.Get(k)
	if !ok || string(got) != "new-longer-payload" {
		t.Fatalf("Get after reopen = %q ok=%v", got, ok)
	}
}

func TestCompactionReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	// A tiny floor so the dead>live trigger fires within the test.
	s := mustOpen(t, dir, Options{CompactMinBytes: 1, NoSync: true})
	k := testKey(0)
	big := bytes.Repeat([]byte{'p'}, 1024)
	for i := 0; i < 8; i++ {
		if err := s.Put(k, append(big, byte('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(100+i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("rewrite-heavy load never compacted: %+v", st)
	}
	if st.DeadBytes >= st.LiveBytes*2 {
		t.Fatalf("dead bytes not reclaimed: %+v", st)
	}
	// Everything still readable after the log was rewritten.
	got, ok, err := s.Get(k)
	if err != nil || !ok || got[len(got)-1] != '7' {
		t.Fatalf("Get after compaction = %q ok=%v err=%v", got, ok, err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, _ := s.Get(testKey(100 + i)); !ok {
			t.Fatalf("key %d lost by compaction", 100+i)
		}
	}
	s.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got, ok, _ := r.Get(k); !ok || got[len(got)-1] != '7' {
		t.Fatalf("Get after compaction+reopen = %q ok=%v", got, ok)
	}
}

func TestForcedCompactIsDeterministic(t *testing.T) {
	// Two stores loaded with the same contents in different orders must
	// compact to byte-identical logs (sorted key order, no map-order leak).
	dirA, dirB := t.TempDir(), t.TempDir()
	a := mustOpen(t, dirA, Options{NoSync: true})
	b := mustOpen(t, dirB, Options{NoSync: true})
	for i := 0; i < 30; i++ {
		if err := a.Put(testKey(i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 29; i >= 0; i-- {
		if err := b.Put(testKey(i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	rawA, err := os.ReadFile(filepath.Join(dirA, logName))
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(filepath.Join(dirB, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("compacted logs differ: %d vs %d bytes", len(rawA), len(rawB))
	}
}

func TestRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("not a meshsort store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOptions(dir, Options{}); err == nil {
		t.Fatal("Open accepted a foreign file")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := s.Put(testKey(1), []byte("x")); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if _, _, err := s.Get(testKey(1)); err == nil {
		t.Fatal("Get after Close succeeded")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{NoSync: true, CompactMinBytes: 1})
	defer s.Close()
	const writers, perWriter = 4, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := testKey(w*perWriter + i)
				if err := s.Put(k, testPayload(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, ok, err := s.Get(k); !ok || err != nil {
					t.Errorf("Get just-put key: ok=%v err=%v", ok, err)
					return
				}
				// Rewrite a shared key to exercise compaction under load.
				if err := s.Put(testKey(0), testPayload(i)); err != nil {
					t.Errorf("Put shared: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
}
