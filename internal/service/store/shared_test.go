package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"testing"
	"time"
)

// TestSharedDirectory: two stores on one directory share records through
// the files. A record Put through one store is served by a second store
// that was opened before the write; the file's mtime drives the second
// store's TTL; a key with no file stays a miss.
func TestSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	writer := mustOpen(t, Options{Dir: dir})
	reader := mustOpen(t, Options{Dir: dir, TTL: time.Hour})

	if _, ok := reader.Get("k"); ok {
		t.Fatal("hit before any write")
	}
	rec := testRecord("k")
	if err := writer.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := reader.Get("k")
	if !ok {
		t.Fatal("record written through another store not served")
	}
	if string(got.Report) != string(rec.Report) || got.Lineage != rec.Lineage || len(got.Intervals) != 2 {
		t.Errorf("shared record %+v, want %+v", got, rec)
	}

	// The reader takes the record's age from the file, not from when it
	// first saw the key.
	if err := writer.Put(testRecord("old")); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(writer.path("old"), past, past); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.Get("old"); ok {
		t.Error("record older than the reader's TTL served")
	}
	if _, err := os.Stat(writer.path("old")); !os.IsNotExist(err) {
		t.Errorf("expired record file still present: %v", err)
	}

	if _, ok := reader.Get("absent"); ok {
		t.Error("key with no record file reported a hit")
	}
	enc, err := encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	m := reader.Metrics()
	if m.Hits != 1 || m.Misses != 3 || m.Evictions != 1 || m.Records != 1 || m.Bytes != int64(len(enc)) {
		t.Errorf("reader metrics %+v, want 1 hit, 3 misses, 1 eviction, 1 record of %d bytes", m, len(enc))
	}
	if m.Corruptions != 0 || reader.Quarantined() != 0 {
		t.Errorf("sharing quarantined records: %+v", m)
	}
}

// TestRecordWithNodeFieldServes: records written by older builds carry
// a "node" field in their payload. It is ignored on read, so those
// records still verify and serve.
func TestRecordWithNodeFieldServes(t *testing.T) {
	s := mustOpen(t, Options{})
	payload := []byte(`{"key":"old","report":{"instructions":1000},"lineage":"lin-old","node":"n1"}`)
	if err := os.WriteFile(s.path("old"), frame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.Get("old")
	if !ok {
		t.Fatal("record with a node field not served")
	}
	if rec.Lineage != "lin-old" || string(rec.Report) != `{"instructions":1000}` {
		t.Errorf("decoded %+v", rec)
	}
}

const fuzzKey = "fuzzkey"

// verifies is the fuzz oracle, written apart from decode: a record file
// may be served only when its framing, its CRC and its payload key all
// check out.
func verifies(key string, data []byte) bool {
	if len(data) < headerSize ||
		!bytes.Equal(data[:4], recordMagic[:]) ||
		binary.BigEndian.Uint16(data[4:6]) != recordVersion ||
		binary.BigEndian.Uint64(data[8:16]) != uint64(len(data)-headerSize) ||
		binary.BigEndian.Uint32(data[16:20]) != crc32.Checksum(data[headerSize:], crcTable) {
		return false
	}
	var rec Record
	return json.Unmarshal(data[headerSize:], &rec) == nil && rec.Key == key
}

// FuzzStoreRecord treats arbitrary bytes as a record file that another
// process wrote for a key into a directory an open Store shares. Get
// must not panic, must serve only records that verify, and must
// quarantine everything else and report it as a miss.
func FuzzStoreRecord(f *testing.F) {
	valid, err := encode(testRecord(fuzzKey))
	if err != nil {
		f.Fatal(err)
	}
	wrongKey, err := encode(testRecord("other"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	badVersion := bytes.Clone(valid)
	badVersion[5]++
	f.Add(valid)
	f.Add(frame([]byte(`{"key":"` + fuzzKey + `","node":"n1"}`)))
	f.Add(wrongKey)
	f.Add(flipped)
	f.Add(badVersion)
	f.Add(frame([]byte(`not json`)))
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(fuzzKey), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, ok := s.Get(fuzzKey)
		want := verifies(fuzzKey, data)
		if ok != want {
			t.Fatalf("Get served=%v, want %v for %d bytes %q", ok, want, len(data), data)
		}
		m := s.Metrics()
		if ok {
			if rec.Key != fuzzKey || m.Hits != 1 || m.Corruptions != 0 {
				t.Fatalf("served record %+v with metrics %+v", rec, m)
			}
			return
		}
		if m.Misses != 1 || m.Corruptions != 1 || s.Quarantined() != 1 || s.Len() != 0 {
			t.Fatalf("rejected record not quarantined as a miss: %+v, quarantined %d", m, s.Quarantined())
		}
		if _, err := os.Stat(s.path(fuzzKey)); !os.IsNotExist(err) {
			t.Fatalf("rejected record still under its key: %v", err)
		}
	})
}
