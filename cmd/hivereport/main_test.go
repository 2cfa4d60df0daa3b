package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/report"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func writeLedgerFile(t *testing.T, name string, build func(lg *ledger.Ledger)) string {
	t.Helper()
	lg := ledger.New()
	build(lg)
	path := filepath.Join(t.TempDir(), name)
	if err := report.WriteFile(path, lg.WriteJSONL); err != nil {
		t.Fatal(err)
	}
	return path
}

func balancedLedger(sleepJ float64) func(lg *ledger.Ledger) {
	return func(lg *ledger.Ledger) {
		lg.Append(ledger.Entry{T: t0, Hive: "h1", Device: "battery", Component: "pack",
			Task: "charge", Dir: ledger.Harvest, Joules: 100, Store: "battery"})
		lg.Append(ledger.Entry{T: t0.Add(time.Hour), Hive: "h1", Device: "edge",
			Component: "pi3b", Task: "Sleep", Dir: ledger.Consume,
			Joules: sleepJ, Seconds: 3600, Store: "battery"})
		lg.SetStore("h1", "battery", 500, 500+100-sleepJ)
	}
}

func TestRunBreakdownAndAudit(t *testing.T) {
	path := writeLedgerFile(t, "run.jsonl", balancedLedger(40))
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"Energy breakdown — hive h1", "Sleep", "40.000",
		"total consumed: 40.000 J", "conservation audit: ok",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunAuditFailureSetsError(t *testing.T) {
	path := writeLedgerFile(t, "bad.jsonl", func(lg *ledger.Ledger) {
		lg.Append(ledger.Entry{T: t0, Hive: "h1", Device: "edge", Component: "pi3b",
			Task: "Sleep", Dir: ledger.Consume, Joules: 10, Store: "battery"})
		lg.SetStore("h1", "battery", 500, 500) // 10 J vanished
	})
	var out bytes.Buffer
	err := run([]string{path}, &out)
	if err == nil {
		t.Fatalf("audit violation should be an error:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "violation") {
		t.Errorf("output missing violation report:\n%s", out.String())
	}
}

func TestRunDiff(t *testing.T) {
	a := writeLedgerFile(t, "a.jsonl", balancedLedger(60))
	b := writeLedgerFile(t, "b.jsonl", balancedLedger(40))
	var out bytes.Buffer
	if err := run([]string{"-diff", a, b}, &out); err != nil {
		t.Fatalf("run -diff: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"Run diff", "Sleep", "-20.000",
		"total consumed: A 60.000 J, B 40.000 J, Δ -20.000 J (-33.3%)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCSVExport(t *testing.T) {
	path := writeLedgerFile(t, "run.jsonl", balancedLedger(40))
	csv := filepath.Join(t.TempDir(), "out.csv")
	var out bytes.Buffer
	if err := run([]string{"-csv", csv, path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "h1,edge,pi3b,Sleep,consume,40,3600,1") {
		t.Errorf("csv missing row:\n%s", data)
	}
}

func TestRunArgErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"-diff", "only-one.jsonl"}, &out); err == nil {
		t.Error("-diff with one file should error")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Error("missing file should error")
	}
}
