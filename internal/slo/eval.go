package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/stats"
)

// Input is everything an evaluation consumes: the run's metrics
// snapshot, its energy ledger entries, and the virtual-time window the
// run covered (required only by per-day energy budgets).
type Input struct {
	Snapshot obs.Snapshot
	Entries  []ledger.Entry
	Window   time.Duration
}

// Result is one objective's verdict. Value and Bound share the
// objective's unit (seconds, Wh, or a ratio); Burn is the error-budget
// burn — the fraction of the objective's headroom consumed, where
// anything above 1 is a breach.
type Result struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Pass   bool    `json:"pass"`
	Value  float64 `json:"value"`
	Bound  float64 `json:"bound"`
	Burn   float64 `json:"burn"`
	Detail string  `json:"detail,omitempty"`
}

// Report is a full evaluation: one result per objective, in spec
// order, so serialized reports are deterministic.
type Report struct {
	Spec    string   `json:"spec"`
	Results []Result `json:"results"`
}

// Pass reports whether every objective passed.
func (r Report) Pass() bool {
	for _, res := range r.Results {
		if !res.Pass {
			return false
		}
	}
	return true
}

// Breaches counts failed objectives.
func (r Report) Breaches() int {
	n := 0
	for _, res := range r.Results {
		if !res.Pass {
			n++
		}
	}
	return n
}

// Err is the breach verdict: nil when every objective passed, else an
// error naming the spec and counting the failing objectives.
func (r Report) Err() error {
	if r.Pass() {
		return nil
	}
	return fmt.Errorf("SLO %q breached: %d of %d objectives failing",
		r.Spec, r.Breaches(), len(r.Results))
}

// WriteJSON writes the report as one indented JSON object.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes an aligned human-readable report: one PASS/FAIL
// line per objective with observed value, bound and burn.
func (r Report) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintf(tw, "slo\t%s\n", r.Spec); err != nil {
		return err
	}
	for _, res := range r.Results {
		verdict := "PASS"
		if !res.Pass {
			verdict = "FAIL"
		}
		if _, err := fmt.Fprintf(tw, "%s\t%s\t%s\tvalue=%.6g\tbound=%.6g\tburn=%.3f\t%s\n",
			verdict, res.Name, res.Kind, res.Value, res.Bound, res.Burn, res.Detail); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Evaluate checks every objective of spec against in. A missing metric
// that an objective depends on is an error (the spec does not match the
// run's instrumentation), but an armed metric with zero traffic passes
// vacuously with a "no samples" detail — an idle service breaches no
// SLO. The report lists objectives in spec order.
func Evaluate(spec Spec, in Input) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	rep := Report{Spec: spec.Name}
	for _, o := range spec.Objectives {
		var res Result
		var err error
		switch o.Kind {
		case KindLatency:
			res, err = evalLatency(o, in)
		case KindEnergy:
			res, err = evalEnergy(o, in)
		case KindAvailability:
			res, err = evalAvailability(o, in)
		default:
			err = fmt.Errorf("slo: unknown kind %q", o.Kind)
		}
		if err != nil {
			return Report{}, err
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

func evalLatency(o Objective, in Input) (Result, error) {
	res := Result{Name: o.Name, Kind: o.Kind, Bound: o.MaxSeconds}
	h, ok := in.Snapshot.FindHistogram(o.Metric)
	if !ok {
		return Result{}, fmt.Errorf("slo: latency objective %q: histogram %q not in snapshot", o.Name, o.Metric)
	}
	v, ok := h.Quantile(o.Quantile)
	if !ok {
		res.Pass = true
		res.Detail = "no samples"
		return res, nil
	}
	res.Value = v
	res.Burn = v / o.MaxSeconds
	res.Pass = v <= o.MaxSeconds
	res.Detail = fmt.Sprintf("q=%g over %d samples", o.Quantile, h.Count)
	return res, nil
}

func evalEnergy(o Objective, in Input) (Result, error) {
	res := Result{Name: o.Name, Kind: o.Kind}
	var sum stats.Kahan
	n := 0
	for _, e := range in.Entries {
		if e.Dir != ledger.Consume {
			continue
		}
		if o.Hive != "" && e.Hive != o.Hive {
			continue
		}
		sum.Add(e.Joules)
		n++
	}
	res.Value = sum.Sum() / 3600 // joules -> Wh
	bound := o.BudgetWh
	if o.BudgetWhPerDay != 0 {
		if in.Window <= 0 {
			return Result{}, fmt.Errorf("slo: energy objective %q: budget_wh_per_day needs a positive evaluation window", o.Name)
		}
		bound = o.BudgetWhPerDay * in.Window.Hours() / 24
	}
	res.Bound = bound
	res.Burn = res.Value / bound
	res.Pass = res.Value <= bound
	res.Detail = fmt.Sprintf("%d consume entries", n)
	if o.Hive != "" {
		res.Detail += fmt.Sprintf(" for hive %q", o.Hive)
	}
	return res, nil
}

func evalAvailability(o Objective, in Input) (Result, error) {
	res := Result{Name: o.Name, Kind: o.Kind, Bound: o.MinRatio}
	total, ok := in.Snapshot.FindCounter(o.TotalMetric)
	if !ok {
		return Result{}, fmt.Errorf("slo: availability objective %q: counter %q not in snapshot", o.Name, o.TotalMetric)
	}
	// The bad counter may legitimately be absent (it is only registered
	// once the first failure happens on some paths): absent means zero.
	bad, _ := in.Snapshot.FindCounter(o.BadMetric)
	if total <= 0 {
		res.Pass = true
		res.Value = 1
		res.Detail = "no traffic"
		return res, nil
	}
	ratio := (total - bad) / total
	if ratio < 0 {
		ratio = 0
	}
	res.Value = ratio
	// Burn compares the observed failure fraction against the allowed
	// one: (1-ratio)/(1-MinRatio) is 0 with no failures, 1 exactly at
	// the objective, >1 in breach.
	res.Burn = (1 - ratio) / (1 - o.MinRatio)
	res.Pass = ratio >= o.MinRatio
	res.Detail = fmt.Sprintf("%g bad of %g total", bad, total)
	return res, nil
}
