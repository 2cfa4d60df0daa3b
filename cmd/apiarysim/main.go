// Command apiarysim runs the large-scale client/server simulation of
// Section VI, regenerating Figures 6-9: per-client energy of the edge
// and edge+cloud scenarios, server counts, loss models, and the
// crossover analysis.
//
// Usage:
//
//	apiarysim fig6 [-csv out.csv]
//	apiarysim fig7 [-cap 35] [-csv out.csv]
//	apiarysim fig8 [-loss a|b|c|all] [-csv out.csv]
//	apiarysim fig9 [-csv out.csv]
//	apiarysim sweep -from N -to M [-cap K] [-losses abc] [-chart]
//	          [-metrics] [-trace out.json] [-ledger out.jsonl]
//	          [-faults plan.json]
//	apiarysim avail [-from N -to M] [-cap K] [-amin 0.5] [-amax 1]
//	          [-points 11] [-faults plan.json] [-csv out.csv]
//	          [-metrics] [-ledger out.jsonl]
//	apiarysim scenario [-model cnn] [-placement edge|edgecloud]
//	          [-period 5m] [-cycles 12] -ledger out.jsonl
//
// With -faults the sweep prices the edge+cloud scenario under the
// plan's degraded uplink (steady drop probability and retry policy):
// expected extra attempts re-pay the upload energy and undelivered
// cycles pay the local inference fallback. The avail subcommand sweeps
// link availability itself, showing how the edge-vs-cloud crossover
// shifts as the link degrades (see docs/FAULTS.md).
//
// Every subcommand accepts -cpuprofile/-memprofile for runtime/pprof
// profiles and -workers N to bound the parallel evaluation fan-out
// (default all CPUs; 1 forces the serial path; the output bytes are
// identical either way). The scenario subcommand replays the Table I/II
// duty cycle into an energy ledger; record the edge and edge+cloud
// placements into two files and compare them with hivereport -diff.
// Every ledger sweep, avail or scenario writes is audited for energy
// conservation before exit, and a violation fails the command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"beesim/internal/core"
	"beesim/internal/experiments"
	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/power"
	"beesim/internal/prof"
	"beesim/internal/report"
	"beesim/internal/routine"
	"beesim/internal/slo"
	"beesim/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "fig6":
		err = figure(os.Args[2:], "Figure 6 (10-400 clients, cap 10, no loss)", experiments.Figure6)
	case "fig7":
		err = fig7(os.Args[2:])
	case "fig8":
		err = fig8(os.Args[2:])
	case "fig9":
		err = figure(os.Args[2:], "Figure 9 (100-2000 clients, cap 35, losses A+B+C)", experiments.Figure9)
	case "sweep":
		err = sweep(os.Args[2:])
	case "avail":
		err = avail(os.Args[2:])
	case "scenario":
		err = scenario(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "apiarysim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apiarysim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: apiarysim <fig6|fig7|fig8|fig9|sweep|avail|scenario> [flags]`)
}

func figure(args []string, title string, run func() ([]experiments.SweepPoint, error)) error {
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	csvPath := fs.String("csv", "", "write the series to this CSV file")
	svgPath := fs.String("svg", "", "write the figure to this SVG file")
	return prof.Run(fs, args, func() error {
		pts, err := run()
		if err != nil {
			return err
		}
		if err := render(title, pts, *csvPath); err != nil {
			return err
		}
		return renderSVG(title, pts, *svgPath)
	})
}

// renderSVG writes the per-client energy figure as an SVG image.
func renderSVG(title string, pts []experiments.SweepPoint, path string) error {
	if path == "" {
		return nil
	}
	edge, cloud, _, err := experiments.SweepSeries(pts)
	if err != nil {
		return err
	}
	chart := report.NewSVGChart(title, "clients", "J/client/cycle")
	chart.Add(edge)
	chart.Add(cloud)
	if err := report.WriteFile(path, chart.Render); err != nil {
		return err
	}
	fmt.Printf("\nfigure written to %s\n", path)
	return nil
}

func fig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	maxPar := fs.Int("cap", 35, "clients allowed in parallel per slot")
	csvPath := fs.String("csv", "", "write the series to this CSV file")
	svgPath := fs.String("svg", "", "write the figure to this SVG file")
	return prof.Run(fs, args, func() error {
		pts, err := experiments.Figure7(*maxPar)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 7 (100-2000 clients, cap %d, no loss)", *maxPar)
		if err := render(title, pts, *csvPath); err != nil {
			return err
		}
		if err := renderSVG(title, pts, *svgPath); err != nil {
			return err
		}
		m := experiments.MilestonesOf(pts)
		fmt.Printf("\nmilestones:\n")
		if m.FirstCrossover > 0 {
			fmt.Printf("  first crossover:   %5d clients (paper, cap 35: 406)\n", m.FirstCrossover)
			fmt.Printf("  peak advantage:    %5.1f J/client at %d clients (paper: 12.5 J at 630)\n",
				float64(m.PeakAdvantage), m.PeakClients)
			fmt.Printf("  permanent win from %5d clients (paper: 803)\n", m.PermanentFrom)
		} else {
			fmt.Printf("  the edge+cloud scenario never wins at this capacity\n")
		}
		return nil
	})
}

func fig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	lossName := fs.String("loss", "all", "loss variant: a, b, c or all")
	csvPath := fs.String("csv", "", "write the series to this CSV file")
	svgPath := fs.String("svg", "", "write the figure to this SVG file")
	return prof.Run(fs, args, func() error {
		var v experiments.LossVariant
		switch *lossName {
		case "a":
			v = experiments.LossA
		case "b":
			v = experiments.LossB
		case "c":
			v = experiments.LossC
		case "all":
			v = experiments.LossAll
		default:
			return fmt.Errorf("unknown loss variant %q", *lossName)
		}
		pts, err := experiments.Figure8(v)
		if err != nil {
			return err
		}
		if err := render("Figure 8: "+v.String(), pts, *csvPath); err != nil {
			return err
		}
		return renderSVG("Figure 8: "+v.String(), pts, *svgPath)
	})
}

func sweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	from := fs.Int("from", 10, "smallest fleet size")
	to := fs.Int("to", 400, "largest fleet size")
	step := fs.Int("step", 1, "fleet size step")
	maxPar := fs.Int("cap", 10, "clients allowed in parallel per slot")
	model := fs.String("model", "cnn", "service model: svm or cnn")
	losses := fs.String("losses", "", "loss models to enable, e.g. \"abc\"")
	balanced := fs.Bool("balanced", false, "use the balanced fill policy")
	csvPath := fs.String("csv", "", "write the series to this CSV file")
	out := report.RegisterExports(fs)
	faultsPath := fs.String("faults", "", "fault plan JSON degrading the edge+cloud uplink")
	return prof.Run(fs, args, func() error {
		m := routine.CNN
		if *model == "svm" {
			m = routine.SVM
		}
		svc, err := core.NewService(m, 5*time.Minute)
		if err != nil {
			return err
		}
		if *faultsPath != "" {
			plan, err := faults.LoadPlan(*faultsPath)
			if err != nil {
				return err
			}
			pi := power.DefaultPi3B()
			a := 1 - plan.Link.DropProb
			retry := plan.RetryOrDefault()
			svc = experiments.DegradeService(svc, a, retry,
				pi.SendAudio().Energy, pi.InferCNN().Energy)
			fmt.Printf("fault plan %s: availability %.2f, delivery %.3f within %d attempts\n",
				*faultsPath, a, retry.DeliveryProb(a), retry.MaxAttempts)
		}
		policy := core.FillSequential
		if *balanced {
			policy = core.FillBalanced
		}
		l := core.Losses{}
		for _, c := range *losses {
			switch c {
			case 'a':
				l.SlotSaturation = true
				l.SaturationMargin = 5
				l.SaturationFactor = 0.10
			case 'b':
				l.TransferPenalty = 1500 * time.Millisecond
			case 'c':
				l.ClientLossFrac = 0.10
				l.ClientLossSD = 2
			default:
				return fmt.Errorf("unknown loss %q", string(c))
			}
		}
		out.Arm(time.Unix(0, 0).UTC())
		pts, err := experiments.Sweep(experiments.SweepConfig{
			Service: svc,
			Server:  core.DefaultServer(*maxPar),
			Losses:  l,
			From:    *from, To: *to, Step: *step,
			Policy:  policy,
			Seed:    7,
			Metrics: out.Metrics,
			Tracer:  out.Tracer,
			Ledger:  out.Ledger,
		})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("sweep %d-%d clients, cap %d, %s, losses %q",
			*from, *to, *maxPar, svc.Name, *losses)
		if err := render(title, pts, *csvPath); err != nil {
			return err
		}
		return out.Finish(os.Stdout)
	})
}

// avail runs the availability sweep: the Figure 6/7 client-range sweep
// re-evaluated at each point of a link-availability grid, with the
// edge+cloud cycle priced up by the expected retry/fallback tax. The
// table shows the crossover fleet size drifting upward (and eventually
// vanishing) as the link degrades.
func avail(args []string) error {
	fs := flag.NewFlagSet("avail", flag.ExitOnError)
	from := fs.Int("from", 100, "smallest fleet size")
	to := fs.Int("to", 2000, "largest fleet size")
	step := fs.Int("step", 10, "fleet size step")
	maxPar := fs.Int("cap", 35, "clients allowed in parallel per slot")
	amin := fs.Float64("amin", 0.5, "lowest link availability")
	amax := fs.Float64("amax", 1.0, "highest link availability")
	points := fs.Int("points", 11, "availability grid points (ends inclusive)")
	faultsPath := fs.String("faults", "", "fault plan JSON supplying the seed and retry policy")
	sloPath := fs.String("slo", "", "SLO spec JSON evaluated per availability point (exit nonzero on breach)")
	csvPath := fs.String("csv", "", "write the availability series to this CSV file")
	out := report.RegisterExports(fs)
	return prof.Run(fs, args, func() error {
		cfg, err := experiments.DefaultAvailabilityConfig()
		if err != nil {
			return err
		}
		cfg.Server = core.DefaultServer(*maxPar)
		cfg.From, cfg.To, cfg.Step = *from, *to, *step
		cfg.AvailFrom, cfg.AvailTo, cfg.AvailSteps = *amin, *amax, *points
		if *faultsPath != "" {
			plan, err := faults.LoadPlan(*faultsPath)
			if err != nil {
				return err
			}
			cfg.Retry = plan.RetryOrDefault()
			cfg.Seed = plan.Seed
		}
		out.Arm(time.Unix(0, 0).UTC())
		cfg.Metrics, cfg.Tracer, cfg.Ledger = out.Metrics, out.Tracer, out.Ledger
		var spec slo.Spec
		if *sloPath != "" {
			if spec, err = slo.LoadSpec(*sloPath); err != nil {
				return err
			}
		}
		pts, err := experiments.AvailabilitySweep(cfg)
		if err != nil {
			return err
		}
		samples := cfg.UploadSamples
		if samples <= 0 {
			samples = experiments.DefaultUploadSamples
		}

		fmt.Printf("availability sweep: %d-%d clients, cap %d, %d attempts max\n\n",
			cfg.From, cfg.To, *maxPar, cfg.Retry.MaxAttempts)
		cols := []string{"Availability", "Delivery", "E[attempts]",
			"First crossover", "Edge J/client", "Edge+cloud J/client",
			"Upload p50", "Upload p99"}
		if *sloPath != "" {
			cols = append(cols, "SLO", "Max burn")
		}
		t := report.NewTable("", cols...)
		breaches := 0
		for _, p := range pts {
			cross := "never"
			if p.FirstCrossover > 0 {
				cross = fmt.Sprintf("%d clients", p.FirstCrossover)
			}
			row := []string{
				fmt.Sprintf("%.2f", p.Availability),
				fmt.Sprintf("%.3f", p.DeliveryProb),
				fmt.Sprintf("%.2f", p.ExpectedAttempts),
				cross,
				fmt.Sprintf("%.1f", float64(p.EdgeJClient)),
				fmt.Sprintf("%.1f", float64(p.CloudJClient)),
				fmt.Sprintf("%.1fs", p.UploadP50S),
				fmt.Sprintf("%.1fs", p.UploadP99S),
			}
			if *sloPath != "" {
				rep, err := slo.Evaluate(spec, slo.Input{
					Snapshot: p.Obs,
					Window:   time.Duration(samples) * experiments.Period,
				})
				if err != nil {
					return err
				}
				verdict := "pass"
				if !rep.Pass() {
					verdict = fmt.Sprintf("FAIL (%d)", rep.Breaches())
					breaches++
				}
				maxBurn := 0.0
				for _, res := range rep.Results {
					if res.Burn > maxBurn {
						maxBurn = res.Burn
					}
				}
				row = append(row, verdict, fmt.Sprintf("%.3f", maxBurn))
			}
			t.MustAddRow(row...)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}

		if *csvPath != "" {
			edge, cloud, crossover, delivered, uploadP50, uploadP99, err := experiments.AvailabilitySeries(pts)
			if err != nil {
				return err
			}
			err = report.WriteFile(*csvPath, func(w io.Writer) error {
				return report.WriteSeriesCSV(w, "availability",
					edge, cloud, crossover, delivered, uploadP50, uploadP99)
			})
			if err != nil {
				return err
			}
			fmt.Printf("\nseries written to %s\n", *csvPath)
		}
		if err := out.Finish(os.Stdout); err != nil {
			return err
		}
		if *sloPath != "" && breaches > 0 {
			return fmt.Errorf("SLO breached at %d of %d availability points", breaches, len(pts))
		}
		return nil
	})
}

// scenario replays the Table I/II duty cycle into an energy ledger: one
// hive, a fixed number of wake-up cycles, every task attributed. Edge
// tasks drain the battery (store-bound); cloud tasks are grid-powered
// attribution overlays. The store delta is registered from the summed
// drain, so the resulting file passes hivereport's conservation audit.
// Record both placements and diff them:
//
//	apiarysim scenario -placement edge -ledger edge.jsonl
//	apiarysim scenario -placement edgecloud -ledger edgecloud.jsonl
//	hivereport -diff edge.jsonl edgecloud.jsonl
func scenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	model := fs.String("model", "cnn", "service model: svm or cnn")
	placement := fs.String("placement", "edge", "service placement: edge or edgecloud")
	period := fs.Duration("period", 5*time.Minute, "wake-up period")
	cycles := fs.Int("cycles", 12, "number of wake-up cycles to record")
	hiveID := fs.String("hive", "apiary-1", "hive id for the ledger entries")
	ledgerPath := fs.String("ledger", "", "write the energy ledger to this JSONL file (required)")
	return prof.Run(fs, args, func() error {
		if *ledgerPath == "" {
			return errors.New("scenario needs -ledger out.jsonl")
		}
		if *cycles <= 0 {
			return fmt.Errorf("non-positive cycle count %d", *cycles)
		}
		spec := routine.Spec{Period: *period}
		switch *model {
		case "cnn":
			spec.Model = routine.CNN
		case "svm":
			spec.Model = routine.SVM
		default:
			return fmt.Errorf("unknown model %q", *model)
		}
		switch *placement {
		case "edge":
			spec.Placement = routine.EdgeOnly
		case "edgecloud":
			spec.Placement = routine.EdgeCloud
		default:
			return fmt.Errorf("unknown placement %q", *placement)
		}
		cycle, err := routine.Build(power.DefaultPi3B(), power.DefaultCloud(), spec)
		if err != nil {
			return err
		}

		lg := ledger.New()
		// A fixed virtual epoch keeps equal-flag runs byte-identical.
		at := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
		for i := 0; i < *cycles; i++ {
			at = cycle.RecordLedger(lg, *hiveID, at)
		}
		// The edge tasks drain a fully charged battery; registering the
		// resulting delta closes the conservation books.
		initialJ := float64(scenarioBatteryWh * 3600)
		drainJ := float64(cycle.EdgeEnergy()) * float64(*cycles)
		lg.SetStore(*hiveID, "battery", initialJ, initialJ-drainJ)

		fmt.Printf("scenario: %s, %s, %d cycle(s) of %v\n",
			spec.Model, spec.Placement, *cycles, *period)
		fmt.Printf("  edge energy:  %v (%v per cycle)\n",
			cycle.EdgeEnergy()*units.Joules(*cycles), cycle.EdgeEnergy())
		fmt.Printf("  cloud energy: %v (%v per cycle)\n",
			cycle.CloudEnergy()*units.Joules(*cycles), cycle.CloudEnergy())
		if err := report.WriteLedger(os.Stdout, "  ", *ledgerPath, lg); err != nil {
			return err
		}
		return ledger.Audit(lg, ledger.DefaultTolerance()).Verdict(os.Stdout, "  ")
	})
}

// scenarioBatteryWh is the paper's 74 Wh battery, the initial charge
// assumed by the scenario subcommand's store delta.
const scenarioBatteryWh = 74

func render(title string, pts []experiments.SweepPoint, csvPath string) error {
	edge, cloud, servers, err := experiments.SweepSeries(pts)
	if err != nil {
		return err
	}
	chart := report.NewChart(title, "clients", "J/client/cycle")
	chart.Add(edge)
	chart.Add(cloud)
	if err := chart.Render(os.Stdout); err != nil {
		return err
	}

	// Milestone rows at the sweep's quartiles.
	t := report.NewTable("", "Clients", "Edge J/client", "Edge+cloud J/client", "Servers", "Winner")
	for _, i := range []int{0, len(pts) / 4, len(pts) / 2, 3 * len(pts) / 4, len(pts) - 1} {
		p := pts[i]
		winner := "edge"
		if p.Diff() > 0 {
			winner = "edge+cloud"
		}
		t.MustAddRow(
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%.1f", float64(p.EdgeOnly.PerClient())),
			fmt.Sprintf("%.1f", float64(p.EdgeCloud.PerClient())),
			fmt.Sprintf("%d", p.EdgeCloud.Servers),
			winner)
	}
	fmt.Println()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	if xs, err := experiments.CrossoverClients(pts); err == nil && len(xs) > 0 {
		fmt.Printf("\ncrossovers at: ")
		for i, x := range xs {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%.0f", x)
		}
		fmt.Println(" clients")
	}

	if csvPath != "" {
		err := report.WriteFile(csvPath, func(w io.Writer) error {
			return report.WriteSeriesCSV(w, "clients", edge, cloud, servers)
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nseries written to %s\n", csvPath)
	}
	return nil
}
