package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"beesim/internal/ledger"
	"beesim/internal/obs"
)

// TestRunExports drives the command end to end: every file it writes
// parses back, and the ledger balances.
func TestRunExports(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	ledgerPath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "m.json")
	if err := run([]string{"-days", "1", "-trace", tracePath, "-ledger", ledgerPath,
		"-metrics-json", metricsPath}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if evs, err := obs.ParseTraceJSON(data); err != nil || len(evs) == 0 {
		t.Fatalf("trace: %d events, %v", len(evs), err)
	}

	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := ledger.ReadJSONL(f)
	if err != nil || lg.Len() == 0 {
		t.Fatalf("ledger: %v", err)
	}
	if rep := ledger.Audit(lg, ledger.DefaultTolerance()); !rep.OK() || rep.StoresChecked == 0 {
		t.Fatalf("ledger audit: %s", rep)
	}

	data, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := obs.ParseSnapshot(data); err != nil || len(snap.Counters) == 0 {
		t.Fatalf("metrics: %d counters, %v", len(snap.Counters), err)
	}
}

// TestRunErrors: a file that cannot be created fails the run, and bad
// invocations are usage errors (exit 2) while runtime failures are not.
func TestRunErrors(t *testing.T) {
	if err := run([]string{"-days", "1", "-ledger", filepath.Join(t.TempDir(), "missing", "t.jsonl")}); err == nil {
		t.Fatal("-ledger into a missing directory succeeded")
	}
	var ue usageError
	if err := run([]string{"-site", "mars"}); !errors.As(err, &ue) {
		t.Fatalf("-site mars: %v, want a usage error", err)
	}
	if err := run([]string{"-days", "0"}); err == nil || errors.As(err, &ue) {
		t.Fatalf("-days 0: %v, want a runtime error", err)
	}
}
