package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// scFor builds a span context with a recognizable trace ID for tests.
func scFor(seed uint64, hive string, wake uint64) *SpanContext {
	return NewRootSpan(seed, hive, wake)
}

func TestObserveExemplarKeepsTopK(t *testing.T) {
	h := &Histogram{}
	// Five observations landing in distinct buckets plus three crowding
	// one bucket: each bucket keeps at most exemplarsPerBucket, largest
	// values first.
	ids := make(map[float64]string)
	for i, v := range []float64{1.0, 1.01, 1.02, 8, 64} {
		sc := scFor(uint64(i), "hive", uint64(i))
		ids[v] = sc.TraceHex()
		h.ObserveExemplar(v, sc)
	}
	ex := h.Exemplars()
	if len(ex) == 0 {
		t.Fatalf("no exemplars recorded")
	}
	perBucket := map[string]int{}
	for _, e := range ex {
		perBucket[e.LE]++
		if e.TraceID != ids[e.Value] {
			t.Fatalf("exemplar %v carries wrong trace ID", e)
		}
	}
	for le, n := range perBucket {
		if n > exemplarsPerBucket {
			t.Fatalf("bucket %s holds %d exemplars, cap is %d", le, n, exemplarsPerBucket)
		}
	}
	// 1.0, 1.01, 1.02 share a bucket: only the two largest survive.
	for _, e := range ex {
		if e.Value == 1.0 {
			t.Fatalf("smallest of three same-bucket values must be evicted")
		}
	}
}

func TestObserveExemplarNilAndNonFinite(t *testing.T) {
	h := &Histogram{}
	h.ObserveExemplar(1.5, nil)
	h.ObserveExemplar(math.NaN(), scFor(1, "h", 0))
	h.ObserveExemplar(math.Inf(1), scFor(1, "h", 0))
	if got := h.Exemplars(); len(got) != 0 {
		t.Fatalf("nil/non-finite observations must not record exemplars: %v", got)
	}
	if h.Count() != 1 {
		t.Fatalf("nil-context ObserveExemplar must still count: %d", h.Count())
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, scFor(1, "h", 0)) // must not panic
	if nilH.Exemplars() != nil {
		t.Fatalf("nil histogram exemplars must be nil")
	}
}

func TestObserveExemplarNilContextZeroAlloc(t *testing.T) {
	h := &Histogram{}
	allocs := testing.AllocsPerRun(100, func() {
		h.ObserveExemplar(2.5, nil)
	})
	if allocs != 0 {
		t.Fatalf("untraced ObserveExemplar allocates: %v allocs/op", allocs)
	}
}

func TestExemplarMergeOrderIndependent(t *testing.T) {
	// The merged reservoir must equal the one a single histogram holds
	// after observing the union, regardless of how samples were split.
	samples := []struct {
		v  float64
		sc *SpanContext
	}{
		{1.0, scFor(1, "a", 0)}, {1.01, scFor(2, "b", 0)}, {1.02, scFor(3, "c", 0)},
		{8, scFor(4, "d", 0)}, {8.1, scFor(5, "e", 0)}, {8.2, scFor(6, "f", 0)},
		{0, scFor(7, "g", 0)}, {1e40, scFor(8, "h", 0)},
	}
	single := &Histogram{}
	for _, s := range samples {
		single.ObserveExemplar(s.v, s.sc)
	}
	splits := [][]int{
		{0, 1, 0, 1, 0, 1, 0, 1},
		{1, 1, 1, 1, 0, 0, 0, 0},
		{0, 0, 0, 0, 1, 1, 1, 1},
	}
	for si, split := range splits {
		parts := []*Histogram{{}, {}}
		for i, s := range samples {
			parts[split[i]].ObserveExemplar(s.v, s.sc)
		}
		merged := &Histogram{}
		merged.Merge(parts[0])
		merged.Merge(parts[1])
		got, want := merged.Exemplars(), single.Exemplars()
		if len(got) != len(want) {
			t.Fatalf("split %d: %d exemplars, want %d", si, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("split %d: exemplar %d = %v, want %v", si, i, got[i], want[i])
			}
		}
	}
}

func TestExemplarsSurviveSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("upload_seconds")
	h.ObserveExemplar(3.5, scFor(9, "hive-2", 4))
	h.ObserveExemplar(41.0, scFor(9, "hive-2", 5))
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseSnapshot: %v", err)
	}
	hs, ok := back.FindHistogram("upload_seconds")
	if !ok || len(hs.Exemplars) != 2 {
		t.Fatalf("exemplars lost in JSON round trip: %+v", hs.Exemplars)
	}
	// The round trip keeps each exemplar's link back to its trace.
	want := scFor(9, "hive-2", 5).TraceHex()
	if e := hs.Exemplars[1]; e.TraceID != want || e.Value != 41.0 {
		t.Fatalf("exemplar = %+v, want trace %s", e, want)
	}
	// Untraced histograms keep the old snapshot shape: no exemplars key.
	r2 := NewRegistry()
	r2.Histogram("plain").Observe(1)
	var buf2 bytes.Buffer
	if err := r2.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf2.Bytes(), []byte("exemplars")) {
		t.Fatalf("untraced snapshot must omit exemplars field:\n%s", buf2.String())
	}
}

func TestExemplarJSONShape(t *testing.T) {
	e := ExemplarSnap{LE: "2", Value: 1.5, TraceID: "deadbeef"}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"le":"2","value":1.5,"trace_id":"deadbeef"}`
	if string(b) != want {
		t.Fatalf("exemplar JSON = %s, want %s", b, want)
	}
}

func BenchmarkHistogramObserveExemplar(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		h := &Histogram{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveExemplar(1.5, nil)
		}
	})
	b.Run("traced", func(b *testing.B) {
		h := &Histogram{}
		sc := scFor(1, "hive-1", 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveExemplar(1.5, sc)
		}
	})
}
