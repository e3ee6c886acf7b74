// Package store is the daemon's durable result store: a dependency-free
// embedded log that maps a canonical batch key (mcbatch.Spec.Hash) to the
// exact serialized result bytes of that batch, surviving process restarts
// and crashes. It is what turns the serve layer's in-memory LRU into a
// read-through/write-behind cache and what lets a sweep campaign resume
// after a crash by skipping cells that already reached disk.
//
// Layout: one append-only record log (meshstore.log) plus an in-memory
// index rebuilt by scanning the log on Open. Each record is
// length-prefixed, carries a CRC-32C checksum over its key and payload,
// and is fsync'd before Put returns, so a record either exists completely
// or not at all:
//
//	header:  16 bytes  "meshsortstore\x00v1"
//	record:  u32 payload length (big endian)
//	         u32 CRC-32C over key||payload
//	         32-byte key
//	         payload bytes
//
// Recovery on Open is torn-tail truncation: the log is scanned record by
// record and cut at the first incomplete or checksum-failing record, so a
// crash mid-append (the only write the store ever does) loses at most the
// record being appended — everything fsync'd before it survives intact.
//
// Updates append a fresh record; the index keeps the newest offset per
// key, and the bytes shadowed by rewrites are tracked as dead. When dead
// bytes outgrow live bytes (and a floor), Put compacts: live records are
// rewritten in sorted key order to a temp log which atomically replaces
// the old one. Compaction is synchronous and deterministic — no
// background goroutine, no clock — which keeps the package inside the
// repository's detrand/leakcheck invariants with zero exemptions.
//
// The store promises byte-for-byte identity: Get returns exactly the
// bytes Put stored, and because the key is the canonical content address
// of a batch (see docs/INVARIANTS.md, cache-key contract), identical
// specs are served byte-identically across restarts.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/mcbatch"
)

// logName is the record log's file name inside the store directory.
const logName = "meshstore.log"

// compactName is the temporary log compaction writes before the rename.
const compactName = "meshstore.log.compact"

// logMagic is the 16-byte header identifying a record log and its format
// version. A future format change bumps the version byte and migrates on
// Open; an unrecognized header is an error, never a silent reinterpret.
var logMagic = [16]byte{'m', 'e', 's', 'h', 's', 'o', 'r', 't', 's', 't', 'o', 'r', 'e', 0, 'v', '1'}

// recordHeaderSize is the fixed prefix of one record: u32 payload length,
// u32 CRC-32C, 32-byte key. Typed int64 because it only ever participates
// in file-offset arithmetic.
const recordHeaderSize int64 = 4 + 4 + int64(len(mcbatch.Key{}))

// maxPayload bounds one record's payload. Result payloads are small JSON
// documents (a few KB); the bound exists so a corrupt length prefix found
// mid-scan is recognized as corruption instead of a 4 GB allocation.
const maxPayload = 1 << 26 // 64 MiB

// crcTable is the Castagnoli polynomial table shared by all records.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadHeader reports a log whose magic/version header is not ours.
var ErrBadHeader = errors.New("store: log header is not a meshsortstore v1 log")

// ErrClosed reports use of a store after Close.
var ErrClosed = errors.New("store: closed")

// Options tunes a store. The zero value is the durable default.
type Options struct {
	// NoSync skips the fsync after each Put. Only tests and bulk loads
	// that can afford to lose the tail should set it; the crash-recovery
	// guarantee ("every Put that returned survives") needs the sync.
	NoSync bool
	// CompactFactor triggers compaction when deadBytes > CompactFactor ×
	// liveBytes (and deadBytes exceeds CompactMinBytes). 0 means 1.
	CompactFactor int
	// CompactMinBytes is the dead-byte floor below which compaction never
	// runs, so small stores don't churn. 0 means 1 MiB.
	CompactMinBytes int64
}

func (o Options) withDefaults() Options {
	if o.CompactFactor <= 0 {
		o.CompactFactor = 1
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	return o
}

// entry locates one live record's payload in the log.
type entry struct {
	off int64 // payload offset
	len int64 // payload length
}

// Stats is a snapshot of the store's size and maintenance counters, the
// source of the daemon's store gauges in /metrics.
type Stats struct {
	// Entries is the number of live keys.
	Entries int
	// LiveBytes is the total record size (header + payload) of live
	// records — the size a freshly compacted log would have, past the
	// file header.
	LiveBytes int64
	// DeadBytes is the record bytes shadowed by rewrites of the same key.
	DeadBytes int64
	// LogBytes is the current size of the log file.
	LogBytes int64
	// Puts counts appends since Open.
	Puts int64
	// Compactions counts compaction runs since Open.
	Compactions int64
	// RecoveredBytes is the size of the torn tail Open truncated, 0 for a
	// clean log.
	RecoveredBytes int64
}

// Store is the embedded persistent result store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu   sync.RWMutex
	f    *os.File // guarded by mu (replaced by compaction)
	size int64    // log file size. guarded by mu
	idx  map[mcbatch.Key]entry
	live int64 // live record bytes (header+payload). guarded by mu
	dead int64 // shadowed record bytes. guarded by mu

	puts        int64 // guarded by mu
	compactions int64 // guarded by mu
	recovered   int64 // guarded by mu
	closed      bool  // guarded by mu
}

// Open opens (creating if necessary) the store in dir with default
// Options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens the store in dir. The directory is created if absent.
// An existing log is scanned to rebuild the index; a torn tail (crash
// mid-append) is truncated away, and the byte count removed is reported
// in Stats.RecoveredBytes.
func OpenOptions(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, f: f, idx: make(map[mcbatch.Key]entry)}
	if err := s.recoverLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recoverLocked scans the log, rebuilds the index, and truncates the torn
// tail. Called from OpenOptions before the Store is shared, so the
// caller's exclusivity stands in for holding s.mu.
func (s *Store) recoverLocked() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	logSize := fi.Size()

	// Empty file: write the header. A file shorter than the header, or
	// with the wrong magic, is not ours — refuse rather than overwrite.
	if logSize == 0 {
		if _, err := s.f.Write(logMagic[:]); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.syncLogLocked(); err != nil {
			return err
		}
		if err := syncDir(s.dir); err != nil {
			return err
		}
		s.size = int64(len(logMagic))
		return nil
	}
	var magic [len(logMagic)]byte
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, int64(len(magic))), magic[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if magic != logMagic {
		return ErrBadHeader
	}

	pos := int64(len(logMagic))
	var hdr [recordHeaderSize]byte
	var payload []byte // one buffer for every record's CRC check, grown to the largest
	for pos < logSize {
		// A record that does not fit completely, or whose checksum fails,
		// marks the valid prefix's end: truncate there. With fsync-per-Put
		// only the final record can be torn, so nothing durable is lost.
		if logSize-pos < recordHeaderSize {
			break
		}
		if _, err := s.f.ReadAt(hdr[:], pos); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		plen := int64(binary.BigEndian.Uint32(hdr[0:4]))
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if plen > maxPayload || logSize-pos-recordHeaderSize < plen {
			break
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := s.f.ReadAt(payload, pos+recordHeaderSize); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		crc := crc32.Update(crc32.Checksum(hdr[8:], crcTable), crcTable, payload)
		if crc != sum {
			break
		}
		var key mcbatch.Key
		copy(key[:], hdr[8:])
		recSize := recordHeaderSize + plen
		if old, ok := s.idx[key]; ok {
			s.dead += recordHeaderSize + old.len
			s.live -= recordHeaderSize + old.len
		}
		s.idx[key] = entry{off: pos + recordHeaderSize, len: plen}
		s.live += recSize
		pos += recSize
	}
	if pos < logSize {
		if err := s.f.Truncate(pos); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := s.syncLogLocked(); err != nil {
			return err
		}
		s.recovered = logSize - pos
	}
	s.size = pos
	return nil
}

// Close syncs and closes the log. Further calls to any method return
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLogLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Has reports whether key has a stored payload.
func (s *Store) Has(key mcbatch.Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	_, ok := s.idx[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx)
}

// Get returns a copy of the payload stored under key. The second result
// is false when the key is absent.
func (s *Store) Get(key mcbatch.Key) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	e, ok := s.idx[key]
	if !ok {
		return nil, false, nil
	}
	payload := make([]byte, e.len)
	if _, err := s.f.ReadAt(payload, e.off); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", key, err)
	}
	return payload, true, nil
}

// Put durably stores payload under key, replacing any previous payload.
// When Put returns nil the record has been fsync'd (unless Options.NoSync)
// and will survive a crash. Put may run a synchronous compaction when the
// dead-byte policy triggers.
func (s *Store) Put(key mcbatch.Key, payload []byte) error {
	if int64(len(payload)) > maxPayload {
		return fmt.Errorf("store: payload of %d bytes exceeds the %d-byte record bound", len(payload), maxPayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	rec := appendRecord(make([]byte, 0, int(recordHeaderSize)+len(payload)), key, payload)
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.syncLogLocked(); err != nil {
		return err
	}
	if old, ok := s.idx[key]; ok {
		s.dead += recordHeaderSize + old.len
		s.live -= recordHeaderSize + old.len
	}
	s.idx[key] = entry{off: s.size + recordHeaderSize, len: int64(len(payload))}
	s.live += int64(len(rec))
	s.size += int64(len(rec))
	s.puts++
	if s.dead > s.opts.CompactMinBytes && s.dead > int64(s.opts.CompactFactor)*s.live {
		return s.compactLocked()
	}
	return nil
}

// Compact rewrites the log to live records only, reclaiming dead bytes.
// It runs automatically from Put under the Options policy; calling it
// directly forces a pass.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked rewrites live records, in sorted key order, into a temp
// log that atomically replaces the current one. Sorted order makes the
// compacted file a deterministic function of the store's contents (map
// iteration order never reaches the disk), which the recovery tests rely
// on. Callers hold s.mu.
func (s *Store) compactLocked() error {
	keys := make([]mcbatch.Key, 0, len(s.idx))
	for k := range s.idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for n := range a {
			if a[n] != b[n] {
				return a[n] < b[n]
			}
		}
		return false
	})

	tmpPath := filepath.Join(s.dir, compactName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds

	newIdx := make(map[mcbatch.Key]entry, len(keys))
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, logMagic[:]...)
	pos := int64(len(logMagic))
	for _, k := range keys {
		e := s.idx[k]
		payload := make([]byte, e.len)
		if _, err := s.f.ReadAt(payload, e.off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compaction read: %w", err)
		}
		buf = appendRecord(buf, k, payload)
		newIdx[k] = entry{off: pos + recordHeaderSize, len: e.len}
		pos += recordHeaderSize + e.len
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compaction write: %w", err)
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compaction sync: %w", err)
		}
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compaction rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		tmp.Close()
		return err
	}
	old := s.f
	s.f = tmp
	old.Close()
	s.idx = newIdx
	s.size = pos
	s.live = pos - int64(len(logMagic))
	s.dead = 0
	s.compactions++
	return nil
}

// Stats returns a snapshot of the store's sizes and counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Entries:        len(s.idx),
		LiveBytes:      s.live,
		DeadBytes:      s.dead,
		LogBytes:       s.size,
		Puts:           s.puts,
		Compactions:    s.compactions,
		RecoveredBytes: s.recovered,
	}
}

// appendRecord serializes one record onto buf.
func appendRecord(buf []byte, key mcbatch.Key, payload []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(key[:], crcTable), crcTable, payload)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, key[:]...)
	return append(buf, payload...)
}

// syncLogLocked fsyncs the log file unless Options.NoSync. Callers hold s.mu.
func (s *Store) syncLogLocked() error {
	if s.opts.NoSync {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed log file
// entry is durable. Platforms that cannot sync directories (the error is
// EINVAL-shaped) are tolerated: the data file itself is still synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		// Some filesystems reject directory fsync; treat only real I/O
		// errors on a regular directory handle as fatal.
		if pe, ok := err.(*os.PathError); !ok || pe.Err.Error() != "invalid argument" {
			return fmt.Errorf("store: dir sync: %w", err)
		}
	}
	return nil
}
