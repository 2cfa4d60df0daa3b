package slo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/obs"
)

func validSpec() Spec {
	return Spec{
		Name: "test",
		Objectives: []Objective{
			{Name: "daily energy", Kind: KindEnergy, Hive: "h1", BudgetWhPerDay: 10},
			{Name: "p99 upload", Kind: KindLatency, Metric: "netsim_upload_seconds", Quantile: 0.99, MaxSeconds: 120},
			{Name: "upload delivery", Kind: KindAvailability, TotalMetric: "netsim_upload_episodes_total", BadMetric: "netsim_send_drops_total", MinRatio: 0.9},
		},
	}
}

func TestParseSpecStrict(t *testing.T) {
	good := `{
	  "name": "upload",
	  "objectives": [
	    {"name": "p99 upload", "kind": "latency", "metric": "netsim_upload_seconds", "quantile": 0.99, "max_s": 120}
	  ]
	}`
	if _, err := ParseSpec([]byte(good)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := map[string]string{
		"unknown field":   `{"name": "x", "objectives": [{"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1, "extra": 1}]}`,
		"trailing data":   `{"name": "x", "objectives": [{"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1}]} tail`,
		"no objectives":   `{"name": "x", "objectives": []}`,
		"no name":         `{"objectives": [{"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1}]}`,
		"bad quantile":    `{"name": "x", "objectives": [{"name": "a", "kind": "latency", "metric": "m", "quantile": 1.5, "max_s": 1}]}`,
		"negative bound":  `{"name": "x", "objectives": [{"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": -1}]}`,
		"negative budget": `{"name": "x", "objectives": [{"name": "a", "kind": "energy", "budget_wh": -5}]}`,
		"both budgets":    `{"name": "x", "objectives": [{"name": "a", "kind": "energy", "budget_wh": 5, "budget_wh_per_day": 5}]}`,
		"unknown kind":    `{"name": "x", "objectives": [{"name": "a", "kind": "weather", "metric": "m"}]}`,
		"mixed fields":    `{"name": "x", "objectives": [{"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1, "budget_wh": 3}]}`,
		"min_ratio 1":     `{"name": "x", "objectives": [{"name": "a", "kind": "availability", "total_metric": "t", "bad_metric": "b", "min_ratio": 1}]}`,
		"unsorted names": `{"name": "x", "objectives": [
		  {"name": "b", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1},
		  {"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1}
		]}`,
		"duplicate names": `{"name": "x", "objectives": [
		  {"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1},
		  {"name": "a", "kind": "latency", "metric": "m", "quantile": 0.5, "max_s": 1}
		]}`,
	}
	for label, data := range bad {
		if _, err := ParseSpec([]byte(data)); err == nil {
			t.Fatalf("%s: spec accepted:\n%s", label, data)
		}
	}
}

func buildInput() Input {
	r := obs.NewRegistry()
	h := r.Histogram("netsim_upload_seconds")
	for i := 0; i < 99; i++ {
		h.Observe(20)
	}
	h.Observe(100)
	r.Counter("netsim_upload_episodes_total").Add(100)
	r.Counter("netsim_send_drops_total").Add(4)
	entries := []ledger.Entry{
		{Hive: "h1", Dir: ledger.Consume, Joules: 3600 * 12}, // 12 Wh
		{Hive: "h2", Dir: ledger.Consume, Joules: 3600 * 50}, // other hive
		{Hive: "h1", Dir: ledger.Harvest, Joules: 3600 * 99}, // not consumption
	}
	return Input{Snapshot: r.Snapshot(), Entries: entries, Window: 48 * time.Hour}
}

func TestEvaluate(t *testing.T) {
	rep, err := Evaluate(validSpec(), buildInput())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(rep.Results))
	}
	byName := map[string]Result{}
	for _, res := range rep.Results {
		byName[res.Name] = res
	}
	// Energy: 12 Wh consumed by h1 against 10 Wh/day * 2 days = 20 Wh.
	energy := byName["daily energy"]
	if !energy.Pass || energy.Value != 12 || energy.Bound != 20 {
		t.Fatalf("energy result = %+v", energy)
	}
	if energy.Burn != 12.0/20 {
		t.Fatalf("energy burn = %v", energy.Burn)
	}
	// Latency: p99 of 99x20s + 1x100s is the rank-99 sample (20s bucket).
	lat := byName["p99 upload"]
	if !lat.Pass || lat.Value > 120 || lat.Value < 20 {
		t.Fatalf("latency result = %+v", lat)
	}
	// Availability: 96/100 delivered against 0.9 → burn 0.4.
	avail := byName["upload delivery"]
	if !avail.Pass || avail.Value != 0.96 {
		t.Fatalf("availability result = %+v", avail)
	}
	if got := avail.Burn; got < 0.399 || got > 0.401 {
		t.Fatalf("availability burn = %v, want 0.4", got)
	}
	if !rep.Pass() || rep.Breaches() != 0 {
		t.Fatalf("report should pass: %+v", rep)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("passing report verdict = %v", err)
	}
}

func TestEvaluateBreaches(t *testing.T) {
	in := buildInput()
	spec := Spec{
		Name: "tight",
		Objectives: []Objective{
			{Name: "p50 upload", Kind: KindLatency, Metric: "netsim_upload_seconds", Quantile: 0.5, MaxSeconds: 1},
			{Name: "strict delivery", Kind: KindAvailability, TotalMetric: "netsim_upload_episodes_total", BadMetric: "netsim_send_drops_total", MinRatio: 0.99},
		},
	}
	rep, err := Evaluate(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() || rep.Breaches() != 2 {
		t.Fatalf("both objectives should breach: %+v", rep)
	}
	if err := rep.Err(); err == nil || err.Error() != `SLO "tight" breached: 2 of 2 objectives failing` {
		t.Fatalf("breach verdict = %v", err)
	}
	for _, res := range rep.Results {
		if res.Burn <= 1 {
			t.Fatalf("breached objective must burn > 1: %+v", res)
		}
	}
}

func TestEvaluateMissingMetricIsError(t *testing.T) {
	in := buildInput()
	spec := Spec{Name: "x", Objectives: []Objective{
		{Name: "a", Kind: KindLatency, Metric: "no_such_histogram", Quantile: 0.5, MaxSeconds: 1},
	}}
	if _, err := Evaluate(spec, in); err == nil {
		t.Fatal("missing histogram must be an error, not a silent pass")
	}
	spec.Objectives[0] = Objective{Name: "a", Kind: KindAvailability,
		TotalMetric: "no_such_counter", BadMetric: "b", MinRatio: 0.5}
	if _, err := Evaluate(spec, in); err == nil {
		t.Fatal("missing total counter must be an error")
	}
}

func TestEvaluateVacuousPasses(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("empty_hist") // armed, zero samples
	r.Counter("episodes")     // armed, zero traffic
	in := Input{Snapshot: r.Snapshot()}
	spec := Spec{Name: "idle", Objectives: []Objective{
		{Name: "delivery", Kind: KindAvailability, TotalMetric: "episodes", BadMetric: "drops", MinRatio: 0.9},
		{Name: "latency", Kind: KindLatency, Metric: "empty_hist", Quantile: 0.99, MaxSeconds: 1},
	}}
	rep, err := Evaluate(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("idle service must pass vacuously: %+v", rep)
	}
	for _, res := range rep.Results {
		if res.Detail != "no samples" && res.Detail != "no traffic" {
			t.Fatalf("vacuous pass must say so: %+v", res)
		}
	}
}

func TestEvaluatePerDayBudgetNeedsWindow(t *testing.T) {
	in := buildInput()
	in.Window = 0
	spec := Spec{Name: "x", Objectives: []Objective{
		{Name: "e", Kind: KindEnergy, BudgetWhPerDay: 10},
	}}
	if _, err := Evaluate(spec, in); err == nil {
		t.Fatal("per-day budget without a window must be an error")
	}
}

func TestReportDeterministicAndRenders(t *testing.T) {
	build := func() []byte {
		rep, err := Evaluate(validSpec(), buildInput())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("equal inputs must serialize to identical report bytes")
	}
	rep, _ := Evaluate(validSpec(), buildInput())
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PASS", "daily energy", "p99 upload", "upload delivery", "burn="} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}
