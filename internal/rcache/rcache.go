package rcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	entrySuffix = ".json"
	tempPrefix  = ".tmp-"
)

// Store is a disk-backed result store. All methods are safe for
// concurrent use; file IO runs under the store's own lock, never the
// caller's.
type Store struct {
	dir      string
	maxBytes int64 // 0 = unbounded
	schema   int

	mu      sync.Mutex
	entries map[string]*entryMeta
	bytes   int64

	evictions uint64
	corrupt   uint64
	writes    uint64
	writeErrs uint64
}

// entryMeta is the in-memory index record of one on-disk entry.
type entryMeta struct {
	size    int64
	lastUse time.Time
}

// envelope is the on-disk entry format. Checksum is the hex SHA-256
// of the raw payload bytes; Schema and Key are verified against the
// store and the file name so a stale or misplaced entry can never be
// served.
type envelope struct {
	Schema   int             `json:"schema"`
	Key      string          `json:"key"`
	Kind     string          `json:"kind"`
	Checksum string          `json:"checksum_sha256"`
	Payload  json.RawMessage `json:"payload"`
}

// Entry describes one stored result for iteration (warm boot).
type Entry struct {
	Key     string
	Size    int64
	LastUse time.Time
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// Entries and Bytes size the store right now.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Evictions counts entries removed by the byte-budget GC;
	// Corrupt counts entries deleted because they failed an
	// integrity check (checksum, schema generation, key, JSON shape).
	Evictions uint64 `json:"evictions"`
	Corrupt   uint64 `json:"corrupt"`
	// Writes counts successful spills; WriteErrors counts failed ones
	// (the result is still served from memory, it just won't survive a
	// restart).
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
}

// Open creates (if needed) and indexes the store at dir. maxBytes
// bounds the total size of stored entries (0 = unbounded); schema is
// the store envelope generation (the daemons pass api.CacheGeneration)
// — entries written under any other generation are treated as corrupt. Leftover temp
// files from a crashed write are removed, and an over-budget store is
// compacted immediately.
func Open(dir string, maxBytes int64, schema int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rcache: create %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		schema:   schema,
		entries:  make(map[string]*entryMeta),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("rcache: read %s: %w", dir, err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tempPrefix) {
			// A crashed write: the rename never happened, so the entry
			// it was building does not exist. Sweep it.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		key, ok := strings.CutSuffix(name, entrySuffix)
		if !ok || !validKey(key) {
			continue // not ours; leave foreign files alone
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.entries[key] = &entryMeta{size: info.Size(), lastUse: info.ModTime()}
		s.bytes += info.Size()
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

// validKey reports whether key looks like a canonical request hash:
// 64 lowercase hex characters. Everything the store writes is named
// this way, so anything else in the directory is not touched.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

func checksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Put spills one finished result, overwriting any previous entry for
// the key. The write is atomic: a temp file in the store directory is
// renamed into place, so readers (and crashes) see either the old
// entry or the new one, never a torn file. A write that pushes the
// store over its byte budget triggers eviction of the least-recently
// used entries.
func (s *Store) Put(key, kind string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("rcache: invalid key %q", key)
	}
	if kind == "" {
		return fmt.Errorf("rcache: empty kind for key %s", key)
	}
	env := envelope{
		Schema: s.schema, Key: key, Kind: kind,
		Checksum: checksum(payload), Payload: payload,
	}
	blob, err := json.Marshal(&env)
	if err != nil {
		s.noteWriteError()
		return fmt.Errorf("rcache: encode %s: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeAtomicLocked(key, blob); err != nil {
		s.writeErrs++
		return err
	}
	if old := s.entries[key]; old != nil {
		s.bytes -= old.size
	}
	s.entries[key] = &entryMeta{size: int64(len(blob)), lastUse: time.Now()}
	s.bytes += int64(len(blob))
	s.writes++
	s.gcLocked()
	return nil
}

func (s *Store) writeAtomicLocked(key string, blob []byte) error {
	f, err := os.CreateTemp(s.dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("rcache: temp file for %s: %w", key, err)
	}
	tmp := f.Name()
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("rcache: write %s: %w", key, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rcache: close %s: %w", key, err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rcache: chmod %s: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rcache: rename %s: %w", key, err)
	}
	return nil
}

func (s *Store) noteWriteError() {
	s.mu.Lock()
	s.writeErrs++
	s.mu.Unlock()
}

// Get loads one entry. A missing key is a plain miss; an entry that
// fails integrity checks is deleted, counted corrupt, and reported as
// a miss — a suspect result is never served. A hit bumps the entry's
// recency (file mtime).
func (s *Store) Get(key string) (kind string, payload []byte, ok bool) {
	if !validKey(key) {
		return "", nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, err := os.ReadFile(s.path(key))
	if err != nil {
		if meta := s.entries[key]; meta != nil {
			// Index said present but the file is gone (external
			// deletion): repair the index.
			s.bytes -= meta.size
			delete(s.entries, key)
		}
		return "", nil, false
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		s.discardCorruptLocked(key)
		return "", nil, false
	}
	if env.Schema != s.schema || env.Key != key || env.Kind == "" ||
		env.Checksum != checksum(env.Payload) {
		s.discardCorruptLocked(key)
		return "", nil, false
	}
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
	if meta := s.entries[key]; meta != nil {
		meta.lastUse = now
	} else {
		// The file appeared behind the index's back (another process
		// sharing the directory); adopt it.
		s.entries[key] = &entryMeta{size: int64(len(blob)), lastUse: now}
		s.bytes += int64(len(blob))
	}
	return env.Kind, env.Payload, true
}

// Remove deletes an entry without counting it corrupt: the caller is
// retiring a live entry it no longer needs (e.g. a stream checkpoint
// consumed by the run it resumed), not reacting to damage.
func (s *Store) Remove(key string) {
	if !validKey(key) {
		return
	}
	s.mu.Lock()
	s.removeLocked(key)
	s.mu.Unlock()
}

// Discard deletes an entry and counts it corrupt. The service layer
// calls it when an entry passed the store's checks but its payload no
// longer decodes into the expected response type.
func (s *Store) Discard(key string) {
	if !validKey(key) {
		return
	}
	s.mu.Lock()
	s.discardCorruptLocked(key)
	s.mu.Unlock()
}

func (s *Store) discardCorruptLocked(key string) {
	s.removeLocked(key)
	s.corrupt++
}

func (s *Store) removeLocked(key string) {
	_ = os.Remove(s.path(key))
	if meta := s.entries[key]; meta != nil {
		s.bytes -= meta.size
		delete(s.entries, key)
	}
}

// gcLocked evicts least-recently-used entries until the store fits
// its byte budget. An entry bigger than the whole budget is evicted
// immediately after being written — the budget is a hard bound.
func (s *Store) gcLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.entries) > 0 {
		oldestKey := ""
		var oldest time.Time
		for key, meta := range s.entries {
			if oldestKey == "" || meta.lastUse.Before(oldest) {
				oldestKey, oldest = key, meta.lastUse
			}
		}
		s.removeLocked(oldestKey)
		s.evictions++
	}
}

// Entries lists the store's index sorted oldest-first by last use, so
// a warm boot that loads the tail of the list into a bounded memory
// cache ends up with the most recently used results resident.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, len(s.entries))
	for key, meta := range s.entries {
		out = append(out, Entry{Key: key, Size: meta.size, LastUse: meta.lastUse})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].LastUse.Equal(out[j].LastUse) {
			return out[i].LastUse.Before(out[j].LastUse)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a point-in-time snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.entries),
		Bytes:       s.bytes,
		Evictions:   s.evictions,
		Corrupt:     s.corrupt,
		Writes:      s.writes,
		WriteErrors: s.writeErrs,
	}
}
