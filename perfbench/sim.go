package main

import (
	"fmt"
	"path/filepath"
	"time"

	"beesim/internal/deployment"
	"beesim/internal/experiments"
	"beesim/internal/ledger"
	"beesim/internal/loadgen"
	"beesim/internal/obs"
	"beesim/internal/slo"
)

// simDays is the deployment run's length at 1-minute wake-ups. A year
// keeps about 2 GB of ledger entries and trace events in memory; a
// month keeps the whole campaign near 200 MB.
const simDays = 30

// simBench is the sim_campaign workload: a deployment run with every
// recorder on, its conservation audit, Figures 6-9 and a capacity plan
// of the checked-in fleet.
type simBench struct {
	rc     *runConfig
	spec   loadgen.LoadSpec
	slo    slo.Spec
	events []loadgen.Event
	first  []namedValue // the first repetition's counts
	fails  []string
	// the last repetition's readings, for the traced run
	wakeups, missed, entries, traceEvents int
}

func (b *simBench) setup(rc *runConfig) ([]time.Duration, error) {
	b.rc = rc
	var setups []time.Duration
	for i := 0; i < batchSetups; i++ {
		d, err := stopwatch(b.prepare)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	return setups, nil
}

// prepare loads the checked-in fleet and SLO specs and schedules the
// fleet's events: the capacity plan's inputs.
func (b *simBench) prepare() error {
	spec, err := loadgen.LoadFile(filepath.Join("examples", "fleet_small.json"))
	if err != nil {
		return err
	}
	spec.Seed = b.rc.Seed
	if b.slo, err = slo.LoadSpec(filepath.Join("examples", "slo_upload.json")); err != nil {
		return err
	}
	b.spec = spec
	b.events = loadgen.Schedule(spec)
	return nil
}

func (b *simBench) pass(span time.Duration, sp *spans) (passResult, error) {
	return repeat(b.rc.Clk, span, func() error { return b.campaign(sp) })
}

// campaign runs the four parts once and checks their counts against
// the first repetition's.
func (b *simBench) campaign(sp *spans) error {
	cfg := deployment.DefaultConfig()
	cfg.Days = simDays
	cfg.WakePeriod = time.Minute
	cfg.Seed = b.rc.Seed
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(cfg.Start)
	cfg.Ledger = ledger.New()
	root := sp.begin("campaign", -1)
	defer sp.end(root)
	var tr *deployment.Trace
	if _, err := sp.time("deployment.Run", root, func() (err error) {
		tr, err = deployment.Run(cfg)
		return err
	}); err != nil {
		return err
	}
	var audit ledger.AuditReport
	if _, err := sp.time("ledger.Audit", root, func() error {
		audit = ledger.Audit(cfg.Ledger, ledger.DefaultTolerance())
		if !audit.OK() {
			return fmt.Errorf("deployment ledger: %s", audit)
		}
		return nil
	}); err != nil {
		return err
	}
	var figPoints int
	if _, err := sp.time("experiments.Figures6to9", root, func() error {
		n, err := figures6to9()
		figPoints = n
		return err
	}); err != nil {
		return err
	}
	var plan loadgen.PlanReport
	if _, err := sp.time("loadgen.Plan", root, func() (err error) {
		plan, err = loadgen.Plan(b.spec, b.events, b.slo, loadgen.PlanOptions{Workers: b.rc.Workers})
		return err
	}); err != nil {
		return err
	}
	b.wakeups, b.missed = tr.Wakeups, tr.MissedWakeups
	b.entries, b.traceEvents = cfg.Ledger.Len(), cfg.Tracer.Len()
	counts := []namedValue{
		{"deployment.wakeups", float64(tr.Wakeups), "count"},
		{"deployment.missed_wakeups", float64(tr.MissedWakeups), "count"},
		{"deployment.outages", float64(tr.Outages), "count"},
		{"deployment.recorder_mj", float64(int64(float64(tr.RecorderEnergy) * 1000)), "count"},
		{"ledger.entries", float64(cfg.Ledger.Len()), "count"},
		{"ledger.audited", float64(audit.EntriesAudited), "count"},
		{"obs.trace_events", float64(cfg.Tracer.Len()), "count"},
		{"figures.points", float64(figPoints), "count"},
		{"plan.min_servers", float64(plan.MinServers), "count"},
		{"plan.offered", float64(plan.Offered), "count"},
	}
	if b.first == nil {
		b.first = counts
		return nil
	}
	for i, c := range counts {
		if c != b.first[i] {
			b.fails = append(b.fails, fmt.Sprintf("%s: %v in a repetition, %v in the first", c.Name, c.Value, b.first[i].Value))
		}
	}
	return nil
}

// figures6to9 regenerates the scale figures and returns their total
// point count.
func figures6to9() (int, error) {
	n := 0
	runs := []func() ([]experiments.SweepPoint, error){
		experiments.Figure6,
		func() ([]experiments.SweepPoint, error) { return experiments.Figure7(35) },
		func() ([]experiments.SweepPoint, error) { return experiments.Figure8(experiments.LossA) },
		func() ([]experiments.SweepPoint, error) { return experiments.Figure8(experiments.LossB) },
		func() ([]experiments.SweepPoint, error) { return experiments.Figure8(experiments.LossC) },
		experiments.Figure9,
	}
	for _, run := range runs {
		pts, err := run()
		if err != nil {
			return 0, err
		}
		n += len(pts)
	}
	return n, nil
}

func (b *simBench) report(p passResult, out *metrics) { batchReport(p, out) }

// counts are the campaign's simulated counts, identical for equal seeds
// on every commit that does not change the model.
func (b *simBench) counts() []namedValue { return b.first }

func (b *simBench) probes(sp *spans, layer *metrics) error {
	runS := median(sp.durations("deployment.Run")) / 1000
	layer.set("deployment.run_s", runS, "s")
	layer.set("deployment.wakeups", float64(b.wakeups), "count")
	layer.set("deployment.missed_wakeups", float64(b.missed), "count")
	if n := b.wakeups + b.missed; n > 0 {
		layer.set("des.ns_per_wakeup", runS*1e9/float64(n), "ns")
	}
	layer.set("ledger.entries", float64(b.entries), "count")
	layer.set("ledger.audit_ms", median(sp.durations("ledger.Audit")), "ms")
	layer.set("obs.trace_events", float64(b.traceEvents), "count")
	layer.set("experiments.sweep_ms", median(sp.durations("experiments.Figures6to9")), "ms")
	layer.set("loadgen.plan_ms", median(sp.durations("loadgen.Plan")), "ms")
	return nil
}

func (b *simBench) check() []string { return b.fails }
func (b *simBench) close() error    { return nil }
