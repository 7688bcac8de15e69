// Package store is the hvcd daemon's durable second result tier: a
// content-addressed on-disk store keyed by the same canonical SHA-256
// that indexes the daemon's finished jobs, so a restarted daemon, or one
// whose finished job has aged out of memory, serves the result instead
// of re-simulating it.
//
// Durability discipline (DESIGN.md §14):
//
//   - Writes are atomic: encode → tmp file in the store dir → write →
//     fsync → rename onto the final name → fsync the directory. A crash
//     at any point leaves either the old record, the new record, or no
//     record — never a half-written one under the final name.
//   - Every record is framed with a versioned header carrying a CRC-32C
//     checksum over the encoded payload. A record that fails the magic,
//     version, length or checksum on read is CORRUPT: it is moved into
//     the quarantine subdirectory (never deleted — it is evidence) and
//     the lookup reports a miss. A corrupt record is never served.
//   - Records expire TTL after their write time and are evicted oldest
//     first when the store exceeds its byte budget. Both are enforced at
//     open and on the write path, so the store converges to its bounds
//     without a background goroutine.
//
// The index (key → size/mtime) lives in memory. A key the index misses
// costs one stat of its record path: several daemons may share one
// store directory, and a record another daemon wrote since this store
// last looked is indexed on the spot and served like any other. Only
// hits read the file back.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridvc/internal/stats"
)

// Record is one durable result: the byte-exact report (sim jobs) or
// rendered tables (sweep jobs), the recorded timeline intervals so a
// disk-served job can still replay its stream, and the lineage ID of the
// run that produced it, so provenance chains survive restarts.
type Record struct {
	// Key is the content address the record was stored under; it is
	// written into the payload and verified on read, so a record file
	// renamed onto the wrong key is treated as corrupt, not served.
	Key       string           `json:"key"`
	Report    json.RawMessage  `json:"report,omitempty"`
	Tables    []string         `json:"tables,omitempty"`
	Intervals []stats.Interval `json:"intervals,omitempty"`
	Lineage   string           `json:"lineage,omitempty"`
}

// Hooks intercept store writes for deterministic fault injection (the
// chaos harness seeds them); the zero value intercepts nothing.
type Hooks struct {
	// BeforeWrite may fail a Put outright — a simulated disk error. The
	// store counts it as a write error and the caller treats the put as
	// best-effort lost.
	BeforeWrite func(key string) error
	// TransformRecord receives the full framed record encoding and
	// returns the bytes that actually hit the disk — a simulated torn or
	// bit-flipped write. The durability contract is exercised on the
	// READ side: whatever this mangles must quarantine, never serve.
	TransformRecord func(key string, encoded []byte) []byte
}

// Options parameterize Open.
type Options struct {
	// Dir is the store directory (created if absent, along with its
	// quarantine/ subdirectory).
	Dir string
	// TTL expires records this long after their write time (<= 0 keeps
	// records until size eviction).
	TTL time.Duration
	// MaxBytes bounds the records' total size; past it the oldest
	// records are evicted (<= 0 is unbounded).
	MaxBytes int64
	// Hooks inject faults; see Hooks.
	Hooks Hooks
}

// Record framing: a fixed header followed by the JSON payload.
//
//	magic   [4]byte  "HVCR"
//	version uint16   recordVersion
//	_       uint16   reserved (zero)
//	length  uint64   payload byte count
//	crc     uint32   CRC-32C (Castagnoli) over the payload
const (
	headerSize    = 20
	recordVersion = 1
)

var (
	recordMagic = [4]byte{'H', 'V', 'C', 'R'}
	crcTable    = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCorrupt wraps every corruption reason a read can hit. Callers see
// it only through Metrics — Get turns corruption into a quarantined miss.
var ErrCorrupt = errors.New("corrupt store record")

// Metrics is the store's counter snapshot, exposed through the daemon's
// /metrics families (hvcd_store_*).
type Metrics struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	Evictions   uint64 `json:"evictions"`
	Corruptions uint64 `json:"corruptions"`
	Records     int    `json:"records"`
	Bytes       int64  `json:"bytes"`
}

// Store is the on-disk tier. All methods are safe for concurrent use.
type Store struct {
	dir      string
	ttl      time.Duration
	maxBytes int64
	hooks    Hooks
	now      func() time.Time // injectable for TTL tests

	mu    sync.Mutex
	index map[string]indexEntry
	bytes int64
	qseq  uint64 // quarantine filename disambiguator

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	writeErrors atomic.Uint64
	evictions   atomic.Uint64
	corruptions atomic.Uint64
}

type indexEntry struct {
	size  int64
	mtime time.Time
}

const (
	recordSuffix  = ".rec"
	quarantineDir = "quarantine"
)

// Open creates/opens the store directory, rebuilds the in-memory index
// from the resident records, and enforces TTL and the byte budget on
// whatever it finds (a record that expired while the daemon was down is
// removed now, not served later).
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("store: empty dir")
	}
	if err := os.MkdirAll(filepath.Join(o.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      o.Dir,
		ttl:      o.TTL,
		maxBytes: o.MaxBytes,
		hooks:    o.Hooks,
		now:      time.Now,
		index:    make(map[string]indexEntry),
	}
	entries, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, recordSuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with removal
		}
		key := strings.TrimSuffix(name, recordSuffix)
		s.index[key] = indexEntry{size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.mu.Lock()
	s.expireLocked()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+recordSuffix)
}

// encode frames a record: header + JSON payload.
func encode(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode %s: %w", rec.Key, err)
	}
	return frame(payload), nil
}

// frame prefixes a payload with the record header.
func frame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf[0:4], recordMagic[:])
	binary.BigEndian.PutUint16(buf[4:6], recordVersion)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.Checksum(payload, crcTable))
	copy(buf[headerSize:], payload)
	return buf
}

// decode verifies the framing and returns the payload record. Any
// mismatch — magic, version, length, checksum, payload JSON, or a key
// that is not the one the caller looked up — wraps ErrCorrupt.
func decode(key string, data []byte) (Record, error) {
	var rec Record
	if len(data) < headerSize {
		return rec, fmt.Errorf("%w: %d bytes, want >= %d header", ErrCorrupt, len(data), headerSize)
	}
	if [4]byte(data[0:4]) != recordMagic {
		return rec, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != recordVersion {
		return rec, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, recordVersion)
	}
	length := binary.BigEndian.Uint64(data[8:16])
	if length != uint64(len(data)-headerSize) {
		return rec, fmt.Errorf("%w: header length %d, file payload %d", ErrCorrupt, length, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if sum := crc32.Checksum(payload, crcTable); sum != binary.BigEndian.Uint32(data[16:20]) {
		return rec, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if rec.Key != key {
		return rec, fmt.Errorf("%w: record key %q under file key %q", ErrCorrupt, rec.Key, key)
	}
	return rec, nil
}

// Put durably stores a record under its key, replacing any existing
// record, then enforces the byte budget. A failed write leaves the
// previous record (if any) intact and counts as a write error; the
// store is a cache, so callers treat Put as best-effort.
func (s *Store) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: put with empty key")
	}
	data, err := encode(rec)
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	if h := s.hooks.BeforeWrite; h != nil {
		if err := h(rec.Key); err != nil {
			s.writeErrors.Add(1)
			return fmt.Errorf("store: write %s: %w", rec.Key, err)
		}
	}
	if h := s.hooks.TransformRecord; h != nil {
		data = h(rec.Key, data)
	}
	if err := s.writeAtomic(rec.Key, data); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)

	s.mu.Lock()
	if old, ok := s.index[rec.Key]; ok {
		s.bytes -= old.size
	}
	s.index[rec.Key] = indexEntry{size: int64(len(data)), mtime: s.now()}
	s.bytes += int64(len(data))
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// writeAtomic is the tmp+fsync+rename+dirsync dance.
func (s *Store) writeAtomic(key string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("store: rename %s: %w", key, err)
	}
	syncDir(s.dir)
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable. Best-effort: some filesystems refuse to sync directories and
// the data fsync already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Get returns the record for key. A key the index misses is looked up
// with one stat, so records written by another daemon on the same
// directory are found; expired records are removed and report a miss;
// a record that fails verification is quarantined and reports a miss —
// corrupt bytes are never served.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok {
		if info, err := os.Stat(s.path(key)); err == nil {
			e, ok = indexEntry{size: info.Size(), mtime: info.ModTime()}, true
			s.index[key] = e
			s.bytes += e.size
		}
	}
	if ok && s.expired(e) {
		s.removeLocked(key, e)
		s.evictions.Add(1)
		ok = false
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return Record{}, false
	}

	data, err := os.ReadFile(s.path(key))
	if err != nil {
		// Raced with eviction, or the file vanished under us: a miss.
		s.mu.Lock()
		if cur, ok := s.index[key]; ok {
			s.removeFromIndexLocked(key, cur)
		}
		s.mu.Unlock()
		s.misses.Add(1)
		return Record{}, false
	}
	rec, err := decode(key, data)
	if err != nil {
		s.quarantine(key, err)
		s.misses.Add(1)
		return Record{}, false
	}
	s.hits.Add(1)
	return rec, true
}

// quarantine moves a corrupt record aside — it is never deleted (the
// bytes are evidence) and never served again under its key.
func (s *Store) quarantine(key string, cause error) {
	s.mu.Lock()
	s.qseq++
	dst := filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d%s", key, s.qseq, recordSuffix))
	if err := os.Rename(s.path(key), dst); err != nil {
		// Could not move it aside; remove it instead so it cannot be
		// re-read. Losing evidence beats re-serving a corrupt miss path.
		os.Remove(s.path(key))
	}
	if e, ok := s.index[key]; ok {
		s.removeFromIndexLocked(key, e)
	}
	s.mu.Unlock()
	s.corruptions.Add(1)
}

// expired reports whether an index entry has outlived the TTL.
func (s *Store) expired(e indexEntry) bool {
	return s.ttl > 0 && s.now().Sub(e.mtime) > s.ttl
}

// expireLocked removes every expired record. Caller holds s.mu.
func (s *Store) expireLocked() {
	for key, e := range s.index {
		if s.expired(e) {
			s.removeLocked(key, e)
			s.evictions.Add(1)
		}
	}
}

// evictLocked removes oldest records until the byte budget holds.
// Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		key string
		e   indexEntry
	}
	order := make([]aged, 0, len(s.index))
	for key, e := range s.index {
		order = append(order, aged{key, e})
	}
	sort.Slice(order, func(a, b int) bool {
		if !order[a].e.mtime.Equal(order[b].e.mtime) {
			return order[a].e.mtime.Before(order[b].e.mtime)
		}
		return order[a].key < order[b].key // deterministic tie-break
	})
	for _, v := range order {
		if s.bytes <= s.maxBytes {
			return
		}
		s.removeLocked(v.key, v.e)
		s.evictions.Add(1)
	}
}

func (s *Store) removeLocked(key string, e indexEntry) {
	os.Remove(s.path(key))
	s.removeFromIndexLocked(key, e)
}

func (s *Store) removeFromIndexLocked(key string, e indexEntry) {
	delete(s.index, key)
	s.bytes -= e.size
}

// Len returns the resident record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the resident records' total size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Quarantined returns the quarantine directory's record count (corrupt
// records moved aside since the directory was created, across restarts).
func (s *Store) Quarantined() int {
	entries, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range entries {
		if !de.IsDir() {
			n++
		}
	}
	return n
}

// Metrics snapshots the store counters and gauges.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	records, bytes := len(s.index), s.bytes
	s.mu.Unlock()
	return Metrics{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Evictions:   s.evictions.Load(),
		Corruptions: s.corruptions.Load(),
		Records:     records,
		Bytes:       bytes,
	}
}

// CorruptFile mangles the on-disk record for key in place by truncating
// it to n bytes (n < 0 flips one bit in the middle instead). It exists
// for the chaos/torn-write tests — production code never calls it.
func (s *Store) CorruptFile(key string, n int) error {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if n < 0 {
		if len(data) == 0 {
			return fmt.Errorf("store: empty record %s", key)
		}
		data[len(data)/2] ^= 0x40
		return os.WriteFile(path, data, 0o644)
	}
	if n > len(data) {
		n = len(data)
	}
	return os.WriteFile(path, data[:n], 0o644)
}
