package hivenet

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"time"

	"beesim/internal/obs"
	"beesim/internal/slo"
	"beesim/internal/store"
)

// This file gives the cloud service a beekeeper-facing HTTP dashboard:
// JSON endpoints over the server's counters and archive, plus a minimal
// HTML overview. Mount it with NewDashboard and any net/http server.

// Dashboard serves monitoring endpoints for a running Server.
type Dashboard struct {
	srv *Server
	mux *http.ServeMux

	// Request metrics; nil-safe no-ops when the server has no registry.
	gInFlight *obs.Gauge

	// SLO evaluation state, armed by SetSLO.
	sloSpec  *slo.Spec
	sloStart time.Time
}

// NewDashboard wraps a server with its HTTP monitoring surface:
//
//	GET /            HTML overview
//	GET /api/stats   server counters (JSON)
//	GET /api/hives   known hive ids (JSON)
//	GET /api/records?hive=ID[&kind=sensor|result][&hours=N]
//	GET /api/metrics metrics registry snapshot (JSON; 404 when disabled)
//	GET /metrics     metrics registry snapshot (text; 404 when disabled)
//	GET /api/ledger  energy ledger export (JSONL; 404 when disabled)
//	GET /api/slo     SLO evaluation report (JSON; 404 until SetSLO)
//	GET /api/trace/{id}  one trace's events, Chrome trace_event JSON
//	                     (404 when tracing is disabled or id unknown)
//	GET /api/slowest     slowest-upload exemplars, slowest first (JSON)
//
// Every /api/* response carries Content-Type: application/json (the
// ledger export overrides to application/jsonl) and Cache-Control:
// no-store, so browsers and proxies never serve stale monitoring data.
//
// Every route is GET-only (HEAD included): the mux answers any other
// method with 405 and an unknown path with 404 before a handler runs.
//
// When the server was configured with a metrics registry, every routed
// request is counted and timed (hivenet_http_requests_total.<handler>,
// hivenet_http_request_seconds.<handler>) and the in-flight gauge
// hivenet_http_in_flight tracks concurrency.
func NewDashboard(srv *Server) *Dashboard {
	d := &Dashboard{
		srv:       srv,
		mux:       http.NewServeMux(),
		gInFlight: srv.Metrics().Gauge(MetricHTTPInFlight),
	}
	d.mux.HandleFunc("GET /{$}", d.instrument("index", d.handleIndex))
	d.mux.HandleFunc("GET /api/stats", d.instrument("stats", apiHeaders(d.handleStats)))
	d.mux.HandleFunc("GET /api/hives", d.instrument("hives", apiHeaders(d.handleHives)))
	d.mux.HandleFunc("GET /api/records", d.instrument("records", apiHeaders(d.handleRecords)))
	d.mux.HandleFunc("GET /api/metrics", d.instrument("metrics", apiHeaders(d.handleMetricsJSON)))
	d.mux.HandleFunc("GET /metrics", d.instrument("metrics", d.handleMetricsText))
	d.mux.HandleFunc("GET /api/ledger", d.instrument("ledger", apiHeaders(d.handleLedger)))
	d.mux.HandleFunc("GET /api/slo", d.instrument("slo", apiHeaders(d.handleSLO)))
	d.mux.HandleFunc("GET /api/trace/{id...}", d.instrument("trace", apiHeaders(d.handleTrace)))
	d.mux.HandleFunc("GET /api/slowest", d.instrument("slowest", apiHeaders(d.handleSlowest)))
	return d
}

// apiHeaders pins the response headers every /api/* endpoint must
// carry: an explicit JSON content type (handlers with a different body
// format override it before writing) and no-store caching, so a
// browser polling the dashboard never shows stale counters. http.Error
// replaces the content type on error paths; Cache-Control survives.
func apiHeaders(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		h(w, r)
	}
}

// SetSLO arms GET /api/slo: every request evaluates the spec against
// the server's live metrics snapshot and ledger and returns the full
// report (pass/fail per objective with error-budget burn) as JSON.
// Call it once, before the dashboard starts serving. Per-day energy
// budgets are prorated over the time elapsed since SetSLO.
func (d *Dashboard) SetSLO(spec slo.Spec) {
	d.sloSpec = &spec
	d.sloStart = time.Now() //beelint:allow walltime live dashboard SLO windows are wall-clock by nature
}

// instrument wraps a handler with request counting, wall-clock duration
// observation and in-flight tracking. With observability disabled the
// handler is returned untouched, so an unobserved server reads no wall
// clock per request.
func (d *Dashboard) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := d.srv.Metrics()
	if m == nil {
		return h
	}
	requests := m.Counter(MetricHTTPRequests + "." + name)
	seconds := m.Histogram(MetricHTTPSeconds + "." + name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //beelint:allow walltime real HTTP request latency for the live dashboard's metrics
		d.gInFlight.Add(1)
		defer func() {
			d.gInFlight.Add(-1)
			requests.Inc()
			seconds.Observe(time.Since(start).Seconds()) //beelint:allow walltime real HTTP request latency for the live dashboard's metrics
		}()
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (d *Dashboard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mux.ServeHTTP(w, r)
}

func (d *Dashboard) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	m := d.srv.Metrics()
	if m == nil {
		http.Error(w, "metrics disabled (start the server with a registry)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := m.Snapshot().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *Dashboard) handleMetricsText(w http.ResponseWriter, r *http.Request) {
	m := d.srv.Metrics()
	if m == nil {
		http.Error(w, "metrics disabled (start the server with a registry)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := m.Snapshot().WriteText(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleLedger streams the server's energy ledger as JSONL — the same
// wire format hivereport and the offline auditor read.
func (d *Dashboard) handleLedger(w http.ResponseWriter, r *http.Request) {
	lg := d.srv.Ledger()
	if lg == nil {
		http.Error(w, "ledger disabled (start the server with -ledger)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := lg.WriteJSONL(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleSLO evaluates the armed SLO spec against the live registry and
// ledger. A breach is still a 200 — the report body carries the
// verdict; monitors should alert on "pass": false, not on the status
// code, so an SLO burn never looks like a dashboard outage.
func (d *Dashboard) handleSLO(w http.ResponseWriter, r *http.Request) {
	if d.sloSpec == nil {
		http.Error(w, "slo disabled (start the server with -slo spec.json)", http.StatusNotFound)
		return
	}
	m := d.srv.Metrics()
	if m == nil {
		http.Error(w, "slo needs metrics (start the server with a registry)", http.StatusNotFound)
		return
	}
	in := slo.Input{
		Snapshot: m.Snapshot(),
		Window:   time.Since(d.sloStart), //beelint:allow walltime live dashboard SLO windows are wall-clock by nature
	}
	if lg := d.srv.Ledger(); lg != nil {
		in.Entries = lg.Entries()
	}
	rep, err := slo.Evaluate(*d.sloSpec, in)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rep.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// validTraceID reports whether id is a 32-digit lowercase hex trace ID
// — the only form the span layer ever mints.
func validTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleTrace serves one trace's events as a Chrome trace_event JSON
// file — load it in Perfetto to see the wake-up's full edge-to-cloud
// chain (root routine span, per-attempt radio spans, server handler).
func (d *Dashboard) handleTrace(w http.ResponseWriter, r *http.Request) {
	if d.srv.Tracer() == nil {
		http.Error(w, "tracing disabled (start the server with a tracer)", http.StatusNotFound)
		return
	}
	id := r.PathValue("id")
	if !validTraceID(id) {
		http.Error(w, "trace id must be 32 lowercase hex digits", http.StatusBadRequest)
		return
	}
	events, ok := d.srv.TraceEvents(id)
	if !ok {
		http.Error(w, "unknown trace id", http.StatusNotFound)
		return
	}
	if err := obs.WriteTraceJSON(w, events); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleSlowest lists the slowest end-to-end uploads the server has
// handled, as (latency, trace ID) exemplars linking straight into
// /api/trace/{id}. Empty until traced uploads arrive.
func (d *Dashboard) handleSlowest(w http.ResponseWriter, r *http.Request) {
	ex := d.srv.SlowestUploads(16)
	if ex == nil {
		ex = []obs.ExemplarSnap{}
	}
	writeJSON(w, ex)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *Dashboard) handleStats(w http.ResponseWriter, r *http.Request) {
	st := d.srv.Stats()
	writeJSON(w, map[string]any{
		"sessions":          st.Sessions,
		"reports":           st.Reports,
		"uploads":           st.Uploads,
		"burst_energy_j":    float64(st.BurstEnergy),
		"idle_energy_j":     float64(st.IdleEnergy),
		"detector_accuracy": d.srv.DetectorAccuracy(),
	})
}

func (d *Dashboard) handleHives(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, d.srv.Archive().Hives())
}

func (d *Dashboard) handleRecords(w http.ResponseWriter, r *http.Request) {
	hive := r.URL.Query().Get("hive")
	if hive == "" {
		http.Error(w, "missing hive parameter", http.StatusBadRequest)
		return
	}
	var kind store.Kind
	switch r.URL.Query().Get("kind") {
	case "":
		kind = 0
	case "sensor":
		kind = store.KindSensor
	case "result":
		kind = store.KindResult
	default:
		http.Error(w, "unknown kind", http.StatusBadRequest)
		return
	}
	hours := 24.0
	if hstr := r.URL.Query().Get("hours"); hstr != "" {
		h, err := strconv.ParseFloat(hstr, 64)
		if err != nil || h <= 0 {
			http.Error(w, "bad hours parameter", http.StatusBadRequest)
			return
		}
		hours = h
	}
	//beelint:allow walltime live-dashboard query window over real archive timestamps; never feeds simulated state
	now := time.Now().UTC().Add(time.Minute) // include just-written records
	from := now.Add(-time.Duration(hours * float64(time.Hour)))
	records, err := d.srv.Archive().Query(hive, from, now, kind)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, records)
}

var indexTemplate = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>beesim cloud service</title></head>
<body>
<h1>beesim cloud service</h1>
<p>detector accuracy: {{printf "%.1f" .Accuracy}}%</p>
<ul>
<li>sessions: {{.Stats.Sessions}}</li>
<li>reports: {{.Stats.Reports}}</li>
<li>uploads: {{.Stats.Uploads}}</li>
<li>burst energy above idle: {{printf "%.1f" .BurstJ}} J</li>
</ul>
<h2>hives</h2>
<ul>
{{range .Hives}}<li>{{.}} — latest: {{index $.Latest .}}</li>
{{else}}<li>none yet</li>
{{end}}
</ul>
{{if .Slowest}}<h2>slowest uploads</h2>
<ul>
{{range .Slowest}}<li><a href="/api/trace/{{.TraceID}}">{{.TraceID}}</a> — {{printf "%.2f" .Value}} s end-to-end</li>
{{end}}
</ul>
{{end}}<p>API: /api/stats, /api/hives, /api/records?hive=ID&amp;kind=result, /api/ledger, /api/slowest, /api/trace/{id}</p>
</body></html>
`))

func (d *Dashboard) handleIndex(w http.ResponseWriter, r *http.Request) {
	st := d.srv.Stats()
	hives := d.srv.Archive().Hives()
	sort.Strings(hives)
	latest := map[string]string{}
	for _, h := range hives {
		if rec, ok := d.srv.Archive().Latest(h, store.KindResult); ok {
			verdict := "queenless"
			if rec.Fields["queen_present"] == 1 {
				verdict = "queen present"
			}
			latest[h] = fmt.Sprintf("%s at %s", verdict, rec.Time.Format(time.RFC3339))
		} else {
			latest[h] = "no verdicts yet"
		}
	}
	data := struct {
		Stats    Stats
		Accuracy float64
		BurstJ   float64
		Hives    []string
		Latest   map[string]string
		Slowest  []obs.ExemplarSnap
	}{
		Stats:    st,
		Accuracy: 100 * d.srv.DetectorAccuracy(),
		BurstJ:   float64(st.BurstEnergy),
		Hives:    hives,
		Latest:   latest,
		Slowest:  d.srv.SlowestUploads(5),
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
