package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"beesim/internal/obs"
	"beesim/internal/report"
)

func writeTraceFile(t *testing.T, name string, hives int) (string, string) {
	t.Helper()
	tr := obs.NewTracer(t0)
	m := obs.NewRegistry()
	h := m.Histogram("upload_seconds")
	for i := 0; i < hives; i++ {
		sc := obs.NewRootSpan(11, "cli-hive", uint64(i))
		at := t0.Add(time.Duration(i) * time.Minute)
		total := time.Duration(3+i) * time.Second
		tr.SpanCtx(sc.Child("compute", 0), "compute", "edge", obs.TidRoutine,
			at, time.Second, nil)
		tr.SpanCtx(sc.Child("upload", 0), "uplink transfer", "net", obs.TidNetwork,
			at.Add(time.Second), total-time.Second, nil)
		tr.SpanCtx(sc, "wake-up cycle", "edge", obs.TidRoutine, at, total, nil)
		h.ObserveExemplar(total.Seconds(), sc)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, name)
	if err := report.WriteFile(tracePath, tr.WriteJSON); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snap.json")
	if err := report.WriteFile(snapPath, m.Snapshot().WriteJSON); err != nil {
		t.Fatal(err)
	}
	return tracePath, snapPath
}

func TestRunTraceText(t *testing.T) {
	tracePath, snapPath := writeTraceFile(t, "run.trace.json", 3)
	var out bytes.Buffer
	if err := run([]string{"trace", "-top", "2", "-metrics", snapPath, tracePath}, &out); err != nil {
		t.Fatalf("trace: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"traces: 3", "Slowest uploads (top 2)",
		"Latency decomposition by segment", "uplink transfer",
		"Histogram exemplars", "upload_seconds",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunTraceJSON(t *testing.T) {
	tracePath, _ := writeTraceFile(t, "run.trace.json", 2)
	var out bytes.Buffer
	if err := run([]string{"trace", "-json", tracePath}, &out); err != nil {
		t.Fatalf("trace -json: %v\n%s", err, out.String())
	}
	var rep struct {
		Traces   []obs.TraceSummary `json:"traces"`
		Segments []obs.SegmentStats `json:"segments"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(rep.Traces) != 2 || len(rep.Segments) != 2 {
		t.Fatalf("got %d traces, %d segments; want 2, 2", len(rep.Traces), len(rep.Segments))
	}
	for _, s := range rep.Traces {
		if s.Coverage() < 0.99 {
			t.Errorf("trace %s coverage %.2f < 0.99", s.TraceID, s.Coverage())
		}
	}
}

func TestRunTraceErrors(t *testing.T) {
	if err := run([]string{"trace"}, &bytes.Buffer{}); err == nil {
		t.Error("trace with no file should fail")
	}
	if err := run([]string{"trace", "-top", "0", "x.json"}, &bytes.Buffer{}); err == nil {
		t.Error("trace -top 0 should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"trace", bad}, &bytes.Buffer{}); err == nil {
		t.Error("unparseable trace file should fail")
	}
}
