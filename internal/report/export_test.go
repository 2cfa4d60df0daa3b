package report

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"beesim/internal/ledger"
)

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "hello\n" {
		t.Fatalf("file = %q, %v", got, err)
	}

	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("write error = %v, want %v", err, boom)
	}

	called := false
	err := WriteFile(filepath.Join(dir, "missing", "out.txt"), func(io.Writer) error {
		called = true
		return nil
	})
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("create error = %v, want not-exist", err)
	}
	if called {
		t.Fatal("write ran without a file")
	}
}

// TestExportsFinish drives the shared tail: the flags arm what they
// name, the files land, the ledger is audited and the metrics printed.
func TestExportsFinish(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	e := RegisterExports(fs)
	tracePath := filepath.Join(dir, "t.json")
	ledgerPath := filepath.Join(dir, "l.jsonl")
	if err := fs.Parse([]string{"-metrics", "-trace", tracePath, "-ledger", ledgerPath}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
	e.Arm(at)
	if e.Metrics == nil || e.Tracer == nil || e.Ledger == nil {
		t.Fatal("Arm left an export unarmed")
	}
	e.Metrics.Counter("runs_total").Inc()
	e.Tracer.Instant("start", "run", 1, at, nil)
	e.Ledger.Append(ledger.Entry{T: at, Hive: "h", Device: "edge", Component: "pi3b",
		Task: "Sleep", Dir: ledger.Consume, Joules: 1})

	var out bytes.Buffer
	if err := e.Finish(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\n1 trace events written to " + tracePath,
		"\n1 ledger entries written to " + ledgerPath,
		"\n  conservation audit: ok (0 store(s), 0 entries balanced, 1 attribution-only)\n",
		"\nmetrics:\n",
		"runs_total",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, path := range []string{tracePath, ledgerPath} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s not written: %v", path, err)
		}
	}

	// Unbalanced books fail the tail with the audit's error.
	e.Ledger.SetStore("h", "battery", 0, 5)
	if err := e.Finish(io.Discard); err == nil || !strings.Contains(err.Error(), "conservation audit failed") {
		t.Fatalf("unbalanced ledger: err = %v", err)
	}
}
