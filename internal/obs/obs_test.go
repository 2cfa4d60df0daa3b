package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// quantile reads h's q-quantile through its snapshot: NaN for a nil or
// empty histogram or an out-of-range q.
func quantile(h *Histogram, q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	v, ok := snapHistogram("", h).Quantile(q)
	if !ok {
		return math.NaN()
	}
	return v
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	c.Add(-1) // counters are monotone: negative deltas ignored
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter after bad adds = %v, want 3.5", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tr *Tracer
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.Merge(nil)
	r.Merge(NewRegistry())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if !math.IsNaN(quantile(h, 0.5)) {
		t.Fatal("nil histogram quantile must be NaN")
	}
	if got := r.Counter("x"); got != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	if got := r.Gauge("x"); got != nil {
		t.Fatal("nil registry must hand out nil gauges")
	}
	if got := r.Histogram("x"); got != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	tr.Span("s", "c", 0, timeEpoch(), 0, nil)
	tr.Instant("i", "c", 0, timeEpoch(), nil)
	tr.Sample("v", 0, timeEpoch(), nil)
	if tr.Len() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{0.5, 0.9, 3, 7, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5 (non-finite dropped)", got)
	}
	if got := h.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := h.Sum(); got != 111.4 {
		t.Fatalf("sum = %v, want 111.4", got)
	}
	if got := h.Min(); got != 0.5 {
		t.Fatalf("min = %v, want 0.5", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	// Exact-count ranks over {0.5, 0.9, 3, 7, 100}: p50 is the 3rd
	// element (3) and the log-linear bound is within 1/32 of it.
	if got := quantile(h, 0.5); got < 3 || got > 3*(1+1.0/histSub) {
		t.Fatalf("p50 = %v, want within one sub-bucket above 3", got)
	}
	if got := quantile(h, 1); got != 100 {
		t.Fatalf("p100 = %v, want max 100", got)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	var bucketTotal uint64
	for _, b := range hs.Buckets {
		if b.Count == 0 {
			t.Fatalf("snapshot exported an empty bucket: %+v", b)
		}
		bucketTotal += b.Count
	}
	if hs.Low+bucketTotal+hs.High != hs.Count {
		t.Fatalf("conservation broken: low=%d buckets=%d high=%d count=%d",
			hs.Low, bucketTotal, hs.High, hs.Count)
	}
	if len(hs.Quantiles) != len(StandardQuantiles) {
		t.Fatalf("quantiles = %+v, want %d entries", hs.Quantiles, len(StandardQuantiles))
	}
}

// TestHistogramOutOfRange is the conservation regression test: values
// below, above and outside the grid must all stay accounted, so
// rank-based quantiles never walk off the end of the counts.
func TestHistogramOutOfRange(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("odd")
	samples := []float64{-3, 0, 1e-12, 2.5, 1e13}
	for _, v := range samples {
		h.Observe(v)
	}
	h.Observe(math.Inf(-1))
	if got := h.Count(); got != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d: out-of-range values must still count", got, len(samples))
	}
	if got := h.Low(); got != 2 {
		t.Fatalf("low = %d, want 2 (one negative, one zero)", got)
	}
	if got := h.High(); got != 1 {
		t.Fatalf("high = %d, want 1 (1e13 is beyond the grid)", got)
	}
	if got := h.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1 (only non-finite)", got)
	}
	if got := h.Min(); got != -3 {
		t.Fatalf("min = %v, want -3", got)
	}
	if got := h.Max(); got != 1e13 {
		t.Fatalf("max = %v, want 1e13", got)
	}
	// Rank accounting over all five samples: the lowest ranks report
	// min, the highest reports max, nothing is lost.
	if got := quantile(h, 0.2); got != -3 {
		t.Fatalf("p20 = %v, want min -3 (low bucket)", got)
	}
	if got := quantile(h, 1); got != 1e13 {
		t.Fatalf("p100 = %v, want max 1e13 (high bucket)", got)
	}
	hs := r.Snapshot().Histograms[0]
	var bucketTotal uint64
	for _, b := range hs.Buckets {
		bucketTotal += b.Count
	}
	if hs.Low+bucketTotal+hs.High != hs.Count {
		t.Fatalf("snapshot conservation broken: %+v", hs)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("acc")
	n := 1000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i))
	}
	for _, q := range StandardQuantiles {
		exact := float64(int(math.Ceil(q * float64(n)))) // rank statistic of 1..n
		got := quantile(h, q)
		if got < exact*(1-1.0/histSub) || got > exact*(1+1.0/histSub) {
			t.Fatalf("q=%g: got %v, want within 1/%d of %v", q, got, histSub, exact)
		}
	}
	if got := quantile(h, 1); got != float64(n) {
		t.Fatalf("p100 = %v, want %d", got, n)
	}
}

// TestHistogramMergeMatchesSingle pins the merge contract: observing a
// sample set on one histogram and observing it sharded then merged must
// snapshot to identical bytes. Samples are exact binary fractions so
// the sums are associative.
func TestHistogramMergeMatchesSingle(t *testing.T) {
	samples := []float64{0.25, 0.5, 0.5, 1, 2, 2, 4, 7.5, 16, 1024, -1, 1e13}
	single := NewRegistry()
	for _, v := range samples {
		single.Histogram("m").Observe(v)
	}
	shards := make([]*Registry, 3)
	for i := range shards {
		shards[i] = NewRegistry()
	}
	for i, v := range samples {
		shards[i%3].Histogram("m").Observe(v)
	}
	merged := NewRegistry()
	for _, s := range shards {
		merged.Merge(s)
	}
	var a, b bytes.Buffer
	if err := single.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged shards diverge from single histogram:\n%s\n%s", a.String(), b.String())
	}
}

func TestRegistryMerge(t *testing.T) {
	src := NewRegistry()
	src.Counter("c").Add(3)
	src.Counter("zero") // registered but never incremented
	src.Gauge("g").Set(7)
	src.Histogram("h").Observe(2)
	dst := NewRegistry()
	dst.Counter("c").Add(1)
	dst.Histogram("h").Observe(4)
	dst.Merge(src)
	if got := dst.Counter("c").Value(); got != 4 {
		t.Fatalf("merged counter = %v, want 4", got)
	}
	if got := dst.Gauge("g").Value(); got != 7 {
		t.Fatalf("merged gauge = %v, want 7", got)
	}
	if got := dst.Histogram("h").Count(); got != 2 {
		t.Fatalf("merged histogram count = %d, want 2", got)
	}
	// The union of names lands in the snapshot, including the
	// never-incremented counter.
	if _, ok := dst.Snapshot().FindCounter("zero"); !ok {
		t.Fatal("merge must register src-only instruments")
	}
	// Self-merge must not double anything.
	dst.Merge(dst)
	if got := dst.Counter("c").Value(); got != 4 {
		t.Fatalf("self-merge changed counter to %v", got)
	}
}

func TestSnapshotQuantileRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rt")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 8)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	hs, ok := back.FindHistogram("rt")
	if !ok {
		t.Fatal("round-tripped snapshot lost the histogram")
	}
	for _, q := range StandardQuantiles {
		live := quantile(r.Histogram("rt"), q)
		offline, ok := hs.Quantile(q)
		if !ok {
			t.Fatalf("offline quantile %g unavailable", q)
		}
		if offline != live {
			t.Fatalf("q=%g: offline %v != live %v", q, offline, live)
		}
	}
}

func TestRegistryReusesByName(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return the same histogram")
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("zeta").Add(1)
		r.Counter("alpha").Add(2)
		r.Gauge("mid").Set(3)
		r.Histogram("h").Observe(1.5)
		return r.Snapshot()
	}
	s := build()
	if s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical registries must export identical JSON")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatal("snapshot JSON is invalid")
	}
	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter", "alpha", "gauge", "mid", "histogram", "q=0.5", "le=1.53125"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, text.String())
		}
	}
}

func TestBucketGrid(t *testing.T) {
	// Every bucket's bound must be finite, positive and strictly
	// ascending, and bucketIndex must be the inverse of the bound walk:
	// a value strictly inside bucket i indexes to i.
	prev := 0.0
	for i := 0; i < histBuckets; i++ {
		b := bucketBound(i)
		if !(b > prev) || math.IsInf(b, 0) || math.IsNaN(b) {
			t.Fatalf("bucket %d bound %v not ascending past %v", i, b, prev)
		}
		mid := (prev + b) / 2
		if i == 0 {
			mid = b * 0.999
		}
		if got, ok := bucketIndex(mid); !ok || got != i {
			t.Fatalf("bucketIndex(%v) = %d,%v, want %d", mid, got, ok, i)
		}
		prev = b
	}
	// Boundary values fall upward into the next bucket (half-open).
	if got, ok := bucketIndex(bucketBound(0)); !ok || got != 1 {
		t.Fatalf("bound 0 value indexes to %d, want 1", got)
	}
	if got, ok := bucketIndex(1.0); !ok {
		t.Fatal("1.0 must be on the grid")
	} else if bucketBound(got) <= 1.0 {
		t.Fatalf("1.0 landed in bucket %d with bound %v <= 1", got, bucketBound(got))
	}
	// sort.SearchFloat64s-style sanity: bounds strictly sorted.
	bounds := make([]float64, histBuckets)
	for i := range bounds {
		bounds[i] = bucketBound(i)
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Fatal("grid bounds not sorted")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			g := r.Gauge("g")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j%150) + 0.5)
				g.Add(1)
				r.Snapshot() // concurrent readers must be safe too
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
}

// TestConcurrentMerge exercises the merge path under the race detector:
// worker registries observe while the destination merges and snapshots.
func TestConcurrentMerge(t *testing.T) {
	dst := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := NewRegistry()
			for j := 0; j < 500; j++ {
				src.Counter("n").Inc()
				src.Histogram("h").Observe(float64(j + 1))
			}
			dst.Merge(src)
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			dst.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := dst.Counter("n").Value(); got != 2000 {
		t.Fatalf("merged counter = %v, want 2000", got)
	}
	if got := dst.Histogram("h").Count(); got != 2000 {
		t.Fatalf("merged histogram count = %d, want 2000", got)
	}
}
