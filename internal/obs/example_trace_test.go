package obs_test

import (
	"fmt"
	"time"

	"beesim/internal/obs"
)

// Example_tracedUpload walks the full tracing loop referenced from
// docs/OBSERVABILITY.md: derive a deterministic root span for a hive
// wake-up, emit child spans for the compute and radio phases plus a
// joined server span, record the upload latency with an exemplar, then
// run the critical-path analyzer and look the slow upload back up by
// its trace ID. Every ID is a pure hash of (seed, hive, wake-up), so
// the output never changes.
func Example_tracedUpload() {
	epoch := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)
	tr := obs.NewTracer(epoch)
	m := obs.NewRegistry()
	h := m.Histogram("upload_seconds")

	// The edge derives the wake-up's identity and spans its phases.
	sc := obs.NewRootSpan(42, "cachan-1", 0)
	tr.SpanCtx(sc.Child("compute", 0), "compute", "edge", obs.TidRoutine,
		epoch, 2*time.Second, nil)
	up := sc.Child("upload", 0)
	tr.SpanCtx(up.Child("attempt", 1), "uplink transfer", "net", obs.TidNetwork,
		epoch.Add(2*time.Second), 5*time.Second, nil)

	// The wire carries the context as a W3C traceparent; the cloud
	// parses it and its handler span joins the same trace.
	srv, err := obs.ParseTraceparent(up.Traceparent())
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	tr.SpanCtx(srv.Child("server", 0), "server handle upload", "server", obs.TidServer,
		epoch.Add(7*time.Second), time.Second, nil)
	tr.SpanCtx(sc, "wake-up cycle", "edge", obs.TidRoutine, epoch, 8*time.Second, nil)

	// The latency histogram keeps (value, trace) exemplars per bucket.
	h.ObserveExemplar(8.0, sc)

	sums := obs.AnalyzeTraces(tr.Events())
	s := sums[0]
	fmt.Printf("root %q covers %.0f%% of %.0fs\n",
		s.RootName, 100*s.Coverage(), float64(s.TotalUS)/1e6)
	for _, seg := range s.Segments {
		fmt.Printf("  %-20s %.0fs\n", seg.Name, float64(seg.US)/1e6)
	}

	// The 8 s exemplar points back at the trace we just analyzed.
	snap := m.Snapshot()
	if hs, ok := snap.FindHistogram("upload_seconds"); ok && len(hs.Exemplars) == 1 {
		fmt.Println("exemplar trace matches:", hs.Exemplars[0].TraceID == s.TraceID)
	}
	// Output:
	// root "wake-up cycle" covers 100% of 8s
	//   uplink transfer      5s
	//   compute              2s
	//   server handle upload 1s
	// exemplar trace matches: true
}
