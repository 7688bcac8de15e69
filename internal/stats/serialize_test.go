package stats

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func sampleHistogram() *Histogram {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []uint64{1, 1, 2, 3, 4, 7, 9, 40} {
		h.Observe(v)
	}
	return h
}

func TestHistogramSnapshotJSONRoundTrip(t *testing.T) {
	h := sampleHistogram()
	want := h.Snapshot()

	// MarshalJSON on the live histogram and on the snapshot must agree.
	fromHist, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromHist, fromSnap) {
		t.Errorf("histogram JSON %s != snapshot JSON %s", fromHist, fromSnap)
	}

	var got HistogramSnapshot
	if err := json.Unmarshal(fromSnap, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if want.Total != 8 || want.Max != 40 || want.P50 != 4 {
		t.Errorf("unexpected summary stats: %+v", want)
	}
	if len(want.Counts) != len(want.Bounds)+1 {
		t.Errorf("counts %d must be bounds %d + overflow", len(want.Counts), len(want.Bounds))
	}
}

func TestHistogramSnapshotIsFrozen(t *testing.T) {
	h := sampleHistogram()
	s := h.Snapshot()
	before := append([]uint64(nil), s.Counts...)
	h.Observe(100)
	if !reflect.DeepEqual(s.Counts, before) {
		t.Error("snapshot counts changed after a later Observe")
	}
}

func TestHistogramReset(t *testing.T) {
	h := sampleHistogram()
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("reset left state: count=%d max=%d mean=%f", h.Count(), h.Max(), h.Mean())
	}
	for i := 0; i < h.NumBuckets(); i++ {
		if h.Bucket(i) != 0 {
			t.Errorf("bucket %d not cleared", i)
		}
	}
	h.Observe(3)
	if h.Count() != 1 || h.Max() != 3 {
		t.Error("histogram unusable after Reset")
	}
}

func TestTimelineWriters(t *testing.T) {
	tl := &Timeline{}
	tl.Append(Interval{Index: 0, EndInsns: 10, Insns: 10, WalkDepth: sampleHistogram().Snapshot()})
	tl.Append(Interval{Index: 1, StartInsns: 10, EndInsns: 20, Insns: 10})
	if tl.Len() != 2 {
		t.Fatalf("len = %d", tl.Len())
	}
	if got, ok := tl.Latest(); !ok || got.Index != 1 {
		t.Fatalf("Latest = %+v (ok=%v)", got, ok)
	}

	var nd bytes.Buffer
	if err := tl.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(nd.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d", len(lines))
	}
	var iv Interval
	if err := json.Unmarshal([]byte(lines[0]), &iv); err != nil {
		t.Fatal(err)
	}
	if iv.WalkDepth.Total != 8 {
		t.Errorf("embedded histogram lost in NDJSON: %+v", iv.WalkDepth)
	}

	var cb bytes.Buffer
	if err := tl.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&cb).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("CSV records = %d, want header + 2", len(recs))
	}
	for i, r := range recs {
		if len(r) != len(recs[0]) {
			t.Errorf("record %d has %d fields, header has %d", i, len(r), len(recs[0]))
		}
	}
}
