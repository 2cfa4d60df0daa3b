package report

// The output steps every simulation command shares: writing a file
// without losing its close error, and the -metrics/-trace/-ledger
// export tail.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/obs"
)

// WriteFile creates path, runs write on it and closes it, returning the
// first error — including the close error, where a full disk or a
// failing flush would otherwise vanish.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error comes first
		return err
	}
	return f.Close()
}

// WriteLedger writes lg to path as JSONL and announces it on w after
// prefix.
func WriteLedger(w io.Writer, prefix, path string, lg *ledger.Ledger) error {
	if err := WriteFile(path, lg.WriteJSONL); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s%d ledger entries written to %s (inspect with hivereport)\n",
		prefix, lg.Len(), path)
	return err
}

// Exports is the export tail of a simulation command: the -metrics,
// -trace and -ledger flags, the registry, tracer and ledger they arm
// for the run, and the files and text written after it. A command may
// replace Metrics, Tracer or Ledger after Arm (to arm one for its own
// outputs, or to swap in a flight-recorder ring); the tail exports
// whatever the fields hold.
type Exports struct {
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Ledger  *ledger.Ledger

	printMetrics *bool
	tracePath    *string
	ledgerPath   *string
}

// RegisterExports adds -metrics, -trace and -ledger to fs.
func RegisterExports(fs *flag.FlagSet) *Exports {
	return &Exports{
		printMetrics: fs.Bool("metrics", false, "print the run's metrics snapshot"),
		tracePath:    fs.String("trace", "", "write a Chrome trace_event JSON timeline to this file"),
		ledgerPath:   fs.String("ledger", "", "write the energy ledger to this JSONL file and audit it"),
	}
}

// Arm builds what the parsed flags ask for: a registry for -metrics, a
// tracer anchored at the virtual epoch for -trace, a ledger for
// -ledger.
func (e *Exports) Arm(epoch time.Time) {
	if *e.printMetrics {
		e.Metrics = obs.NewRegistry()
	}
	if *e.tracePath != "" {
		e.Tracer = obs.NewTracer(epoch)
	}
	if *e.ledgerPath != "" {
		e.Ledger = ledger.New()
	}
}

// WriteFiles writes the trace JSON and the ledger JSONL the flags name,
// announcing each on w after prefix.
func (e *Exports) WriteFiles(w io.Writer, prefix string) error {
	if *e.tracePath != "" {
		if err := WriteFile(*e.tracePath, e.Tracer.WriteJSON); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%d trace events written to %s (open at ui.perfetto.dev)\n",
			prefix, e.Tracer.Len(), *e.tracePath); err != nil {
			return err
		}
	}
	if *e.ledgerPath != "" {
		return WriteLedger(w, prefix, *e.ledgerPath, e.Ledger)
	}
	return nil
}

// PrintMetrics writes the metrics snapshot as text when -metrics was
// given.
func (e *Exports) PrintMetrics(w io.Writer) error {
	if !*e.printMetrics {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\nmetrics:\n"); err != nil {
		return err
	}
	return e.Metrics.Snapshot().WriteText(w)
}

// Finish is the whole tail: the files, the ledger's conservation audit
// (an error when it fails), then the metrics text.
func (e *Exports) Finish(w io.Writer) error {
	if err := e.WriteFiles(w, "\n"); err != nil {
		return err
	}
	if e.Ledger != nil {
		if err := ledger.Audit(e.Ledger, ledger.DefaultTolerance()).Verdict(w, "  "); err != nil {
			return err
		}
	}
	return e.PrintMetrics(w)
}
