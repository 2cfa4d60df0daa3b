package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Table I", "Task", "Energy (J)", "Time (s)")
	if err := tbl.AddRow("Sleep", "111.6", "178.5"); err != nil {
		t.Fatal(err)
	}
	tbl.MustAddRow("Shutdown", "21.0", "9.9")
	out := tbl.String()
	for _, want := range []string{"Table I", "Task", "Sleep", "111.6", "Shutdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if len(tbl.rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.rows))
	}
}

func TestTableRowShape(t *testing.T) {
	tbl := NewTable("x", "a", "b")
	if err := tbl.AddRow("only one"); err == nil {
		t.Fatal("short row accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddRow did not panic on bad shape")
		}
	}()
	tbl.MustAddRow("1", "2", "3")
}

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries("bad", []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched series accepted")
	}
	s, err := NewSeries("ok", []float64{1, 2}, []float64{3, 4})
	if err != nil || s.Name != "ok" {
		t.Fatal("valid series rejected")
	}
}

func TestChartRender(t *testing.T) {
	c := NewChart("Figure 7", "clients", "J/client")
	edge, _ := NewSeries("edge", []float64{100, 500, 1000}, []float64{367.5, 367.5, 367.5})
	cloud, _ := NewSeries("edge+cloud", []float64{100, 500, 1000}, []float64{470, 380, 360})
	c.Add(edge)
	c.Add(cloud)
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7", "edge", "edge+cloud", "clients", "J/client", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 20 {
		t.Fatalf("chart too short: %d lines", lines)
	}
}

func TestChartErrors(t *testing.T) {
	c := NewChart("x", "", "")
	if err := c.Render(&bytes.Buffer{}); err == nil {
		t.Fatal("empty chart rendered")
	}
	s, _ := NewSeries("e", nil, nil)
	c.Add(s)
	if err := c.Render(&bytes.Buffer{}); err == nil {
		t.Fatal("chart with empty series rendered")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// A flat line must not divide by zero.
	c := NewChart("flat", "", "")
	s, _ := NewSeries("f", []float64{1, 2, 3}, []float64{5, 5, 5})
	c.Add(s)
	if err := c.Render(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a, _ := NewSeries("edge", []float64{10, 20}, []float64{367.5, 367.5})
	b, _ := NewSeries("cloud", []float64{10, 20}, []float64{500, 430})
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "clients", a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "clients,edge,cloud" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "10,367.5,500" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteSeriesCSVErrors(t *testing.T) {
	if err := WriteSeriesCSV(&bytes.Buffer{}, "x"); err == nil {
		t.Error("no series accepted")
	}
	a, _ := NewSeries("a", []float64{1, 2}, []float64{1, 2})
	short, _ := NewSeries("s", []float64{1}, []float64{1})
	if err := WriteSeriesCSV(&bytes.Buffer{}, "x", a, short); err == nil {
		t.Error("mismatched lengths accepted")
	}
	shifted, _ := NewSeries("sh", []float64{1, 3}, []float64{1, 2})
	if err := WriteSeriesCSV(&bytes.Buffer{}, "x", a, shifted); err == nil {
		t.Error("mismatched x values accepted")
	}
}
