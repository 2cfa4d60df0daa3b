package hivenet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"beesim/internal/faults"
	"beesim/internal/hive"
	"beesim/internal/netsim"
	"beesim/internal/obs"
)

// tracedLink builds a fault-armed uplink whose first attempts fail
// deterministically, instrumented into the given tracer and registry.
func tracedLink(t *testing.T, m *obs.Registry, tr *obs.Tracer, start time.Time, dropProb float64) *netsim.Link {
	t.Helper()
	cfg := netsim.DefaultConfig()
	cfg.Seed = 5
	link, err := netsim.NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link.Instrument(m, tr, func() time.Time { return start })
	inj, err := faults.NewInjector(faults.Plan{
		Seed: 9,
		Link: faults.LinkFaults{DropProb: dropProb},
	}, start)
	if err != nil {
		t.Fatal(err)
	}
	pol := faults.DefaultRetryPolicy()
	pol.MaxAttempts = 6
	if err := link.AttachFaults(inj, pol, m); err != nil {
		t.Fatal(err)
	}
	return link
}

// TestTracedUploadEndToEnd is the tentpole's acceptance check: one
// faulted campaign yields a single Chrome trace in which an upload's
// root span, its per-attempt radio spans and the server's handler span
// share a trace ID, and the critical-path analyzer attributes >= 95 %
// of the end-to-end latency to named segments.
func TestTracedUploadEndToEnd(t *testing.T) {
	epoch := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)
	m := obs.NewRegistry()
	tr := obs.NewTracer(epoch)

	srvCfg := DefaultServerConfig()
	srvCfg.Metrics = m
	srvCfg.Tracer = tr
	s := startServer(t, srvCfg)

	agCfg := DefaultAgentConfig("trace-1")
	agCfg.Seed = 3
	agCfg.Tracer = tr
	// Drop probability 0.5: with seed 9 some of the cycles below retry
	// at least once; we assert on the attempt histogram to be sure.
	agCfg.Uplink = tracedLink(t, m, tr, epoch, 0.5)
	agent, err := Dial(s.Addr(), agCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	var traceIDs []string
	for i := 0; i < 8; i++ {
		now := epoch.Add(time.Duration(i) * 5 * time.Minute)
		if _, err := agent.RunCycle(hive.QueenPresent, 0.6, now); err != nil {
			if err == ErrUploadDropped {
				continue // budget exhausted; still a valid traced episode
			}
			t.Fatal(err)
		}
		traceIDs = append(traceIDs, agent.LastTraceID())
	}
	if len(traceIDs) == 0 {
		t.Fatal("no upload delivered in 8 cycles")
	}
	snap := m.Snapshot()
	att, ok := snap.FindHistogram(netsim.MetricAttemptsPerUpload)
	if !ok || att.Max < 2 {
		t.Fatalf("campaign saw no retries (max attempts %v); cannot exercise attempt spans", att.Max)
	}

	// The tracer holds agent and server spans; pick a delivered upload
	// that needed retries and check the full chain shares its trace ID.
	sums := obs.AnalyzeTraces(tr.Events())
	if len(sums) == 0 {
		t.Fatal("no traces analyzed")
	}
	byID := make(map[string]obs.TraceSummary, len(sums))
	for _, s := range sums {
		byID[s.TraceID] = s
	}
	var checked, retried bool
	for _, id := range traceIDs {
		sum, ok := byID[id]
		if !ok {
			t.Fatalf("delivered upload trace %s missing from analysis", id)
		}
		if sum.RootName != "wake-up cycle" {
			t.Fatalf("trace %s root = %q, want the agent's wake-up span", id, sum.RootName)
		}
		if sum.Segment("server handle upload") == 0 {
			t.Fatalf("trace %s has no server handler span — traceparent join failed", id)
		}
		if sum.Segment("uplink transfer") == 0 {
			t.Fatalf("trace %s has no delivered transfer span", id)
		}
		if cov := sum.Coverage(); cov < 0.95 {
			t.Fatalf("trace %s attributes only %.1f%% of its latency", id, 100*cov)
		}
		checked = true
		if sum.Segment("uplink retry") > 0 && sum.Segment("uplink backoff") > 0 {
			retried = true
		}
	}
	if !checked {
		t.Fatal("no trace verified")
	}
	if !retried {
		t.Fatal("no delivered upload carried retry + backoff spans; campaign too calm")
	}

	// The written trace is one valid Chrome JSON file.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace JSON invalid")
	}

	// Exemplars in the merged registry point back at real trace IDs.
	e2e, ok := snap.FindHistogram(MetricUploadE2ESeconds)
	if !ok || len(e2e.Exemplars) == 0 {
		t.Fatal("upload e2e histogram carries no exemplars")
	}
	for _, ex := range e2e.Exemplars {
		if _, ok := byID[ex.TraceID]; !ok {
			t.Fatalf("exemplar trace %s not in the trace file", ex.TraceID)
		}
	}

	// The dashboard serves the chain: slowest panel -> trace fetch.
	d := NewDashboard(s)
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/slowest", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/slowest status = %d", rec.Code)
	}
	var slowest []obs.ExemplarSnap
	if err := json.Unmarshal(rec.Body.Bytes(), &slowest); err != nil {
		t.Fatal(err)
	}
	if len(slowest) == 0 {
		t.Fatal("slowest panel empty after traced uploads")
	}
	for i := 1; i < len(slowest); i++ {
		if slowest[i].Value > slowest[i-1].Value {
			t.Fatal("slowest panel not sorted slowest-first")
		}
	}
	rec = httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/trace/"+slowest[0].TraceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/trace/{id} status = %d: %s", rec.Code, rec.Body.String())
	}
	events, err := obs.ParseTraceJSON(rec.Body.Bytes())
	if err != nil || len(events) == 0 {
		t.Fatalf("trace endpoint body unparseable: %v", err)
	}
	for _, e := range events {
		if id, _ := e.Args[obs.ArgTraceID].(string); id != slowest[0].TraceID {
			t.Fatalf("trace endpoint leaked foreign event %v", e)
		}
	}
}

func TestTraceEndpointValidation(t *testing.T) {
	d, _ := dashboardWithTraffic(t) // untraced server
	rec := httptest.NewRecorder()
	d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/trace/0123456789abcdef0123456789abcdef", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("untraced server trace fetch status = %d, want 404", rec.Code)
	}

	epoch := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)
	cfg := DefaultServerConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(epoch)
	s := startServer(t, cfg)
	td := NewDashboard(s)
	for _, bad := range []string{
		"/api/trace/",
		"/api/trace/short",
		"/api/trace/0123456789ABCDEF0123456789ABCDEF", // uppercase
		"/api/trace/0123456789abcdef0123456789abcdeg", // non-hex
	} {
		rec := httptest.NewRecorder()
		td.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, rec.Code)
		}
	}
	rec = httptest.NewRecorder()
	td.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/trace/0123456789abcdef0123456789abcdef", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", rec.Code)
	}
}

// TestAPIEndpointHeaders pins the contract that every /api/* response
// carries an explicit content type and no-store caching, success and
// error paths alike.
func TestAPIEndpointHeaders(t *testing.T) {
	d, s := dashboardWithTraffic(t)
	_ = s
	cases := []struct {
		path        string
		wantType    string // "" means: don't check (error paths are text/plain)
		wantOK      bool
		contentType string
	}{
		{path: "/api/stats", wantOK: true, contentType: "application/json"},
		{path: "/api/hives", wantOK: true, contentType: "application/json"},
		{path: "/api/records?hive=dash-1", wantOK: true, contentType: "application/json"},
		{path: "/api/metrics", wantOK: false},                          // metrics disabled on this server
		{path: "/api/ledger", wantOK: false},                           // ledger disabled
		{path: "/api/slo", wantOK: false},                              // slo not armed
		{path: "/api/trace/" + strings.Repeat("a", 32), wantOK: false}, // tracing disabled
		{path: "/api/slowest", wantOK: true, contentType: "application/json"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		if c.wantOK && rec.Code != http.StatusOK {
			t.Errorf("%s status = %d, want 200", c.path, rec.Code)
		}
		if !c.wantOK && rec.Code == http.StatusOK {
			t.Errorf("%s unexpectedly succeeded", c.path)
		}
		if got := rec.Header().Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", c.path, got)
		}
		if c.contentType != "" {
			if got := rec.Header().Get("Content-Type"); got != c.contentType {
				t.Errorf("%s Content-Type = %q, want %q", c.path, got, c.contentType)
			}
		}
	}
	// The ledger endpoint keeps its JSONL type when armed.
	// (Covered by TestDashboardLedgerEndpoint for the body; here only
	// the cache header matters and it is asserted above.)
}

// FuzzTraceparent fuzzes the W3C traceparent parser the server runs on
// every upload frame: parsing must never panic, and any accepted header
// must re-serialize to the exact input bytes and re-parse to the same
// identity (the round-trip contract the wire join depends on).
func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-00")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7")
	f.Add(obs.NewRootSpan(42, "fuzz-hive", 7).Traceparent())
	f.Add("")
	f.Add(strings.Repeat("-", 55))
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := obs.ParseTraceparent(s)
		if err != nil {
			return
		}
		out := sc.Traceparent()
		if out != s {
			t.Fatalf("accepted %q but re-serialized to %q", s, out)
		}
		back, err := obs.ParseTraceparent(out)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", out, err)
		}
		if back != sc {
			t.Fatalf("round trip changed identity: %+v vs %+v", back, sc)
		}
	})
}
