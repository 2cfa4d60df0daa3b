package obs

import (
	"math"
	"sort"
)

// Critical-path analysis over span-tagged trace events: group complete
// ("X") events by trace ID, pick each trace's root span, and attribute
// the trace's end-to-end latency to named segments (compute, uplink
// transfer, uplink retry, backoff, server handling, …). This is the
// engine behind `hivereport trace`: quantiles say *that* p99 is slow,
// the decomposition says *where* those seconds went.
//
// Everything here is deterministic: ordering is by explicit sort keys,
// never map order, so reports over byte-identical traces are
// byte-identical themselves.

// Segment is one named component of a trace's latency.
type Segment struct {
	// Name is the span name the time was spent under.
	Name string `json:"name"`
	// Spans is how many spans of that name the trace contains.
	Spans int `json:"spans"`
	// US is their summed duration in microseconds. Segments may
	// overlap in time (a server handling span can run while the edge
	// shuts down), so the segment sum can exceed TotalUS; CoveredUS is
	// the overlap-free union.
	US int64 `json:"us"`
}

// TraceSummary is the analysis of one trace.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// RootName is the root span's name (the span without a parent; if
	// a trace arrives without one, the longest span stands in).
	RootName string `json:"root"`
	// StartUS/EndUS bound every span of the trace; TotalUS = End-Start
	// is the end-to-end latency the segments decompose.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	TotalUS int64 `json:"total_us"`
	// CoveredUS is the union of all non-root span intervals clipped to
	// [StartUS, EndUS]: the part of the end-to-end latency attributed
	// to named segments. CoveredUS/TotalUS is the attribution ratio.
	CoveredUS int64 `json:"covered_us"`
	// Segments is the per-name decomposition, largest first.
	Segments []Segment `json:"segments"`
	// Spans counts all spans in the trace, root included.
	Spans int `json:"spans"`
}

// Coverage returns the attributed fraction of the end-to-end latency
// (0 when the trace is empty).
func (s TraceSummary) Coverage() float64 {
	if s.TotalUS <= 0 {
		return 0
	}
	return float64(s.CoveredUS) / float64(s.TotalUS)
}

// Segment returns the named segment's summed microseconds (0 when the
// trace has no such segment).
func (s TraceSummary) Segment(name string) int64 {
	for _, seg := range s.Segments {
		if seg.Name == name {
			return seg.US
		}
	}
	return 0
}

// eventTraceID extracts the trace_id arg ("" when untagged).
func eventTraceID(e TraceEvent) string {
	if e.Args == nil {
		return ""
	}
	id, _ := e.Args[ArgTraceID].(string)
	return id
}

// eventHasParent reports whether the event carries a parent_span_id.
func eventHasParent(e TraceEvent) bool {
	if e.Args == nil {
		return false
	}
	_, ok := e.Args[ArgParentID]
	return ok
}

// AnalyzeTraces groups the span-tagged complete events of a trace file
// by trace ID and summarizes each trace's latency decomposition.
// Untagged events (the classic single-run timeline spans) are ignored.
// Results are sorted slowest-first, ties broken by trace ID, so the
// top-K slowest traces are the head of the slice.
func AnalyzeTraces(events []TraceEvent) []TraceSummary {
	byTrace := make(map[string][]TraceEvent)
	order := make([]string, 0)
	for _, e := range events {
		if e.Phase != "X" {
			continue
		}
		id := eventTraceID(e)
		if id == "" {
			continue
		}
		if _, seen := byTrace[id]; !seen {
			order = append(order, id)
		}
		byTrace[id] = append(byTrace[id], e)
	}
	sort.Strings(order)
	out := make([]TraceSummary, 0, len(order))
	for _, id := range order {
		out = append(out, summarizeTrace(id, byTrace[id]))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalUS != out[j].TotalUS {
			return out[i].TotalUS > out[j].TotalUS
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

func summarizeTrace(id string, spans []TraceEvent) TraceSummary {
	s := TraceSummary{TraceID: id, Spans: len(spans)}
	rootIdx := -1
	for i, e := range spans {
		end := e.TS + e.Dur
		if i == 0 || e.TS < s.StartUS {
			s.StartUS = e.TS
		}
		if i == 0 || end > s.EndUS {
			s.EndUS = end
		}
		if eventHasParent(e) {
			continue
		}
		// Root candidate: earliest parentless span, ties to the longer
		// one so a wake-up root beats a same-instant instant-ish span.
		if rootIdx < 0 || e.TS < spans[rootIdx].TS ||
			(e.TS == spans[rootIdx].TS && e.Dur > spans[rootIdx].Dur) {
			rootIdx = i
		}
	}
	if rootIdx < 0 {
		// No parentless span (e.g. a server-only trace slice): the
		// longest span stands in as the root.
		for i, e := range spans {
			if rootIdx < 0 || e.Dur > spans[rootIdx].Dur ||
				(e.Dur == spans[rootIdx].Dur && e.TS < spans[rootIdx].TS) {
				rootIdx = i
			}
		}
	}
	s.RootName = spans[rootIdx].Name
	s.TotalUS = s.EndUS - s.StartUS

	type interval struct{ lo, hi int64 }
	segs := make(map[string]*Segment)
	names := make([]string, 0, 4)
	intervals := make([]interval, 0, len(spans))
	for i, e := range spans {
		if i == rootIdx {
			continue
		}
		seg, ok := segs[e.Name]
		if !ok {
			seg = &Segment{Name: e.Name}
			segs[e.Name] = seg
			names = append(names, e.Name)
		}
		seg.Spans++
		seg.US += e.Dur
		intervals = append(intervals, interval{e.TS, e.TS + e.Dur})
	}
	sort.Strings(names)
	for _, n := range names {
		s.Segments = append(s.Segments, *segs[n])
	}
	sort.SliceStable(s.Segments, func(i, j int) bool {
		if s.Segments[i].US != s.Segments[j].US {
			return s.Segments[i].US > s.Segments[j].US
		}
		return s.Segments[i].Name < s.Segments[j].Name
	})

	// Overlap-free union of the non-root spans, clipped to the trace.
	sort.Slice(intervals, func(i, j int) bool {
		if intervals[i].lo != intervals[j].lo {
			return intervals[i].lo < intervals[j].lo
		}
		return intervals[i].hi < intervals[j].hi
	})
	var covered, cursor int64
	cursor = s.StartUS
	for _, iv := range intervals {
		if iv.hi > s.EndUS {
			iv.hi = s.EndUS
		}
		if iv.lo < cursor {
			iv.lo = cursor
		}
		if iv.hi > iv.lo {
			covered += iv.hi - iv.lo
			cursor = iv.hi
		}
	}
	s.CoveredUS = covered
	return s
}

// SegmentStats aggregates one segment name across many traces.
type SegmentStats struct {
	Name string `json:"name"`
	// Traces is how many traces contain the segment at least once.
	Traces int `json:"traces"`
	// Spans is the total span count across those traces.
	Spans int `json:"spans"`
	// TotalUS sums the segment across all traces; P50US/P99US are
	// exact-rank quantiles of the per-trace segment totals.
	TotalUS int64 `json:"total_us"`
	P50US   int64 `json:"p50_us"`
	P99US   int64 `json:"p99_us"`
}

// AggregateSegments computes the per-segment latency decomposition
// table over a set of trace summaries: for each segment name, the
// p50/p99 of its per-trace totals and the grand total. Sorted by total
// descending, ties by name, so the dominant segment leads the table.
func AggregateSegments(sums []TraceSummary) []SegmentStats {
	perName := make(map[string]*SegmentStats)
	samples := make(map[string][]int64)
	names := make([]string, 0, 8)
	for _, s := range sums {
		for _, seg := range s.Segments {
			st, ok := perName[seg.Name]
			if !ok {
				st = &SegmentStats{Name: seg.Name}
				perName[seg.Name] = st
				names = append(names, seg.Name)
			}
			st.Traces++
			st.Spans += seg.Spans
			st.TotalUS += seg.US
			samples[seg.Name] = append(samples[seg.Name], seg.US)
		}
	}
	sort.Strings(names)
	out := make([]SegmentStats, 0, len(names))
	for _, n := range names {
		st := *perName[n]
		vals := samples[n]
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		st.P50US = rankQuantile(vals, 0.5)
		st.P99US = rankQuantile(vals, 0.99)
		out = append(out, st)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TotalUS != out[j].TotalUS {
			return out[i].TotalUS > out[j].TotalUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// rankQuantile picks the rank-ceil(q*n) element of sorted vals — the
// same exact-count rule HistogramSnap.Quantile uses.
func rankQuantile(vals []int64, q float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(vals) {
		rank = len(vals)
	}
	return vals[rank-1]
}
