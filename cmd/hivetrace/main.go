// Command hivetrace runs the deployed-hive simulation of Figure 2: a
// multi-day discrete-event trace of one smart beehive (solar panel,
// battery, weather, colony, duty-cycled recorder), printed as a summary
// and optionally exported as CSV for plotting, a Chrome trace_event
// timeline for Perfetto, a metrics snapshot, and an energy ledger.
//
// Usage:
//
//	hivetrace [-days 7] [-wake 10m] [-site cachan|lyon] [-csv out.csv]
//	          [-trace out.json] [-trace-events] [-metrics]
//	          [-metrics-csv out.csv] [-metrics-json out.json]
//	          [-ledger out.jsonl] [-flight N]
//	          [-empty] [-no-brownout] [-faults plan.json]
//	          [-slo spec.json] [-replicas N] [-workers N]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -faults the run injects the deterministic fault plan — link
// outages and packet loss on the uplink (with retry/backoff and a
// buffer-and-drain upload queue), node crash windows, battery
// brownouts, sensor dropouts — and the summary grows a fault section
// (see docs/FAULTS.md). The plan's schedule is derived from its own
// seed and the virtual clock, so faulted runs are as reproducible as
// clean ones.
//
// With -replicas N the command runs an N-replica ensemble (each replica
// on a seed derived from -seed) fanned across -workers goroutines and
// prints per-replica summaries with ensemble statistics; exports are
// single-run features and cannot be combined with it.
//
// Traces, metrics and the ledger are keyed by the virtual simulation
// clock, so two runs with the same seed produce byte-identical exports
// (see docs/OBSERVABILITY.md). With -ledger the full ledger is written
// as JSONL and audited for energy conservation; with -flight N only the
// last N entries are retained and dumped to stderr when the battery's
// protection circuit trips (a flight recorder for debugging brownouts).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"beesim/internal/deployment"
	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/prof"
	"beesim/internal/report"
	"beesim/internal/slo"
	"beesim/internal/solar"
	"beesim/internal/stats"
	"beesim/internal/timeseries"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hivetrace:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks bad invocations (exit 2, like the flag parse errors
// the flag set exits with) as opposed to runtime failures (exit 1).
type usageError string

func (e usageError) Error() string { return string(e) }

func run(args []string) error {
	fs := flag.NewFlagSet("hivetrace", flag.ExitOnError)
	days := fs.Int("days", 7, "days to simulate")
	wake := fs.Duration("wake", 10*time.Minute, "recorder wake-up period")
	site := fs.String("site", "cachan", "deployment site: cachan or lyon")
	csvPath := fs.String("csv", "", "write the trace series to this CSV file")
	out := report.RegisterExports(fs)
	traceEvents := fs.Bool("trace-events", false, "include every DES engine event in the trace (verbose)")
	metricsCSV := fs.String("metrics-csv", "", "write the metrics snapshot to this CSV file")
	metricsJSON := fs.String("metrics-json", "", "write the metrics snapshot to this JSON file (exemplars included; feeds hivereport trace -metrics)")
	flight := fs.Int("flight", 0, "flight-recorder mode: retain only the last N ledger entries, dump to stderr on battery cutoff")
	empty := fs.Bool("empty", false, "simulate an empty hive (no colony yet)")
	noBrownout := fs.Bool("no-brownout", false, "disable the night bus brownout")
	faultsPath := fs.String("faults", "", "inject the deterministic fault plan from this JSON file")
	sloPath := fs.String("slo", "", "evaluate the SLO spec from this JSON file after the run (exit nonzero on breach)")
	seed := fs.Uint64("seed", 1, "random seed")
	replicas := fs.Int("replicas", 0, "run an N-replica ensemble (seeds derived per replica) instead of a single trace")
	return prof.Run(fs, args, func() error {
		cfg := deployment.DefaultConfig()
		cfg.Days = *days
		cfg.WakePeriod = *wake
		cfg.Seed = *seed
		cfg.NightBrownout = !*noBrownout
		switch *site {
		case "cachan":
			cfg.Location = solar.Cachan
		case "lyon":
			cfg.Location = solar.Lyon
		default:
			return usageError(fmt.Sprintf("unknown site %q", *site))
		}
		if *empty {
			cfg.Colony.Population = 0
		}
		if *faultsPath != "" {
			plan, err := faults.LoadPlan(*faultsPath)
			if err != nil {
				return err
			}
			cfg.Faults = &plan
		}
		var spec slo.Spec
		if *sloPath != "" {
			if *flight > 0 {
				return usageError("-slo needs the full ledger; it cannot be combined with the -flight ring")
			}
			var err error
			if spec, err = slo.LoadSpec(*sloPath); err != nil {
				return err
			}
		}
		out.Arm(cfg.Start)
		if *replicas > 0 {
			if out.Metrics != nil || out.Tracer != nil || out.Ledger != nil || *metricsCSV != "" || *metricsJSON != "" || *csvPath != "" || *flight > 0 || *sloPath != "" {
				return usageError("-replicas is a summary ensemble; it cannot be combined with -csv, -trace, -metrics, -metrics-csv, -metrics-json, -ledger, -flight or -slo")
			}
			return runEnsemble(cfg, *replicas)
		}
		if out.Metrics == nil && (*metricsCSV != "" || *metricsJSON != "" || *sloPath != "") {
			// -slo needs the metrics registry armed even when the snapshot
			// is not otherwise printed: latency objectives read histograms.
			out.Metrics = obs.NewRegistry()
		}
		switch {
		case *flight > 0:
			lg, err := ledger.NewRing(*flight)
			if err != nil {
				return err
			}
			lg.AutoDump(os.Stderr)
			out.Ledger = lg
		case out.Ledger == nil && *sloPath != "":
			// -slo also needs the full ledger: energy objectives sum its
			// consume entries.
			out.Ledger = ledger.New()
		}
		cfg.Metrics, cfg.Tracer, cfg.Ledger = out.Metrics, out.Tracer, out.Ledger
		cfg.TraceEngineEvents = *traceEvents && out.Tracer != nil

		tr, err := deployment.Run(cfg)
		if err != nil {
			return err
		}

		fmt.Printf("hive trace: %s, %d day(s), wake every %v\n\n", cfg.Location.Name, cfg.Days, cfg.WakePeriod)
		fmt.Printf("  completed routines:   %6d\n", tr.Wakeups)
		fmt.Printf("  missed wake-ups:      %6d (system down)\n", tr.MissedWakeups)
		fmt.Printf("  outages:              %6d\n", tr.Outages)
		fmt.Printf("  recorder energy:      %v\n", tr.RecorderEnergy)
		fmt.Printf("  monitor energy:       %v\n", tr.MonitorEnergy)
		fmt.Printf("  harvested energy:     %v\n", tr.HarvestedEnergy)

		if cfg.Faults != nil {
			fmt.Printf("\n  faults (plan seed %d):\n", cfg.Faults.Seed)
			fmt.Printf("    upload retries:     %6d (%v radio energy)\n", tr.UploadRetries, tr.RetryEnergy)
			fmt.Printf("    failed uploads:     %6d\n", tr.FailedUploads)
			fmt.Printf("    flushed from queue: %6d\n", tr.FlushedUploads)
			fmt.Printf("    still buffered:     %6d\n", tr.BufferedUploads)
			fmt.Printf("    dropped uploads:    %6d\n", tr.DroppedUploads)
			fmt.Printf("    sensor dropouts:    %6d\n", tr.SensorDropouts)
			fmt.Printf("    battery brownouts:  %6d\n", tr.Brownouts)
		}

		if gaps := tr.RecorderPower.Gaps(2 * time.Hour); len(gaps) > 0 {
			fmt.Printf("\n  night gaps (recorder down > 2 h):\n")
			for _, g := range gaps {
				fmt.Printf("    %s -> %s (%v)\n",
					g.Start.Format("Jan 02 15:04"), g.End.Format("Jan 02 15:04"),
					g.End.Sub(g.Start).Round(time.Minute))
			}
		}

		if st, en := tr.InsideTemp.Span(); !st.IsZero() {
			var sum float64
			for _, p := range tr.InsideTemp.Points() {
				sum += p.V
			}
			fmt.Printf("\n  inside temperature: mean %.1f C over %s..%s\n",
				sum/float64(tr.InsideTemp.Len()),
				st.Format("Jan 02"), en.Format("Jan 02"))
		}

		if *csvPath != "" {
			err := report.WriteFile(*csvPath, func(w io.Writer) error {
				return timeseries.WriteCSV(w, tr.RecorderPower, tr.PanelPower, tr.BatterySoC,
					tr.InsideTemp, tr.InsideHumidity, tr.OutsideTemp, tr.OutsideHumidity)
			})
			if err != nil {
				return err
			}
			fmt.Printf("\n  trace written to %s\n", *csvPath)
		}

		if err := out.WriteFiles(os.Stdout, "\n  "); err != nil {
			return err
		}

		if *flight > 0 {
			// A ring sees only a window of the flows, so a conservation
			// audit over it is not meaningful; report retention instead.
			fmt.Printf("\n  flight recorder: %d of %d entries retained, %d trip(s)\n",
				cfg.Ledger.Len(), cfg.Ledger.Total(), cfg.Ledger.Trips())
		} else if cfg.Ledger != nil {
			rep, err := ledger.AuditTrip(cfg.Ledger, ledger.DefaultTolerance())
			if err != nil {
				return err
			}
			fmt.Println()
			if err := rep.Verdict(os.Stdout, "  "); err != nil {
				return err
			}
		}

		if *metricsCSV != "" {
			err := report.WriteFile(*metricsCSV, func(w io.Writer) error {
				return report.WriteMetricsCSV(w, cfg.Metrics.Snapshot())
			})
			if err != nil {
				return err
			}
			fmt.Printf("\n  metrics written to %s\n", *metricsCSV)
		}

		if *metricsJSON != "" {
			if err := report.WriteFile(*metricsJSON, cfg.Metrics.Snapshot().WriteJSON); err != nil {
				return err
			}
			fmt.Printf("\n  metrics written to %s\n", *metricsJSON)
		}

		if err := out.PrintMetrics(os.Stdout); err != nil {
			return err
		}

		if *sloPath == "" {
			return nil
		}
		rep, err := slo.Evaluate(spec, slo.Input{
			Snapshot: cfg.Metrics.Snapshot(),
			Entries:  cfg.Ledger.Entries(),
			Window:   time.Duration(cfg.Days) * 24 * time.Hour,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nslo check (%s):\n", *sloPath)
		if err := rep.WriteText(os.Stdout); err != nil {
			return err
		}
		return rep.Err()
	})
}

// runEnsemble fans n deployment replicas (per-replica derived seeds)
// across the worker pool and prints a per-replica summary table plus
// ensemble mean and standard deviation — the quick answer to "how much
// of this trace is seed luck".
func runEnsemble(cfg deployment.Config, n int) error {
	traces, err := deployment.RunReplicas(cfg, n, 0)
	if err != nil {
		return err
	}
	fmt.Printf("hive ensemble: %s, %d day(s), wake every %v, %d replica(s), %d worker(s)\n\n",
		cfg.Location.Name, cfg.Days, cfg.WakePeriod, n, parallel.Default())
	t := report.NewTable("", "Replica", "Routines", "Missed", "Outages",
		"Recorder J", "Harvest J")
	var routines, missed, outages, recorder, harvest stats.Online
	for i, tr := range traces {
		t.MustAddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", tr.Wakeups),
			fmt.Sprintf("%d", tr.MissedWakeups),
			fmt.Sprintf("%d", tr.Outages),
			fmt.Sprintf("%.0f", float64(tr.RecorderEnergy)),
			fmt.Sprintf("%.0f", float64(tr.HarvestedEnergy)))
		routines.Add(float64(tr.Wakeups))
		missed.Add(float64(tr.MissedWakeups))
		outages.Add(float64(tr.Outages))
		recorder.Add(float64(tr.RecorderEnergy))
		harvest.Add(float64(tr.HarvestedEnergy))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\n  routines:  %.1f +/- %.1f\n", routines.Mean(), routines.StdDev())
	fmt.Printf("  missed:    %.1f +/- %.1f\n", missed.Mean(), missed.StdDev())
	fmt.Printf("  outages:   %.1f +/- %.1f\n", outages.Mean(), outages.StdDev())
	fmt.Printf("  recorder:  %.0f J +/- %.0f J\n", recorder.Mean(), recorder.StdDev())
	fmt.Printf("  harvest:   %.0f J +/- %.0f J\n", harvest.Mean(), harvest.StdDev())
	return nil
}
