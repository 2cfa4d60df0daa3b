// Package report renders beesim's experiment outputs: text tables in the
// layout of the paper's Tables I/II, ASCII line charts for quick looks at
// the figures, and CSV series for external plotting.
package report

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is a simple column-oriented text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; the cell count must match the columns.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table has %d columns",
			len(cells), len(t.Columns))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// MustAddRow is AddRow that panics on a shape mismatch (a programming
// error in experiment code).
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		seps[i] = strings.Repeat("-", len(c))
	}
	if _, err := fmt.Fprintln(tw, strings.Join(seps, "\t")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return "report: render error: " + err.Error()
	}
	return sb.String()
}

// Series is one named line of (x, y) points for charts and CSV export.
type Series struct {
	Name string
	X, Y []float64
}

// NewSeries validates and builds a series.
func NewSeries(name string, x, y []float64) (Series, error) {
	if len(x) != len(y) {
		return Series{}, fmt.Errorf("report: series %q has %d x but %d y", name, len(x), len(y))
	}
	return Series{Name: name, X: x, Y: y}, nil
}

// Chart is a rough ASCII line chart for terminal output: good enough to
// see crossovers and convergence without leaving the shell.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int
	Height int
	series []Series
}

// NewChart creates a chart with sensible terminal dimensions.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 72, Height: 20}
}

// Add appends a series to the chart.
func (c *Chart) Add(s Series) { c.series = append(c.series, s) }

var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the chart to w.
func (c *Chart) Render(w io.Writer) error {
	if len(c.series) == 0 {
		return errors.New("report: chart has no series")
	}
	// Only finite points participate: a stray NaN or Inf sample must not
	// poison the axis ranges (NaN comparisons) or the grid indexing
	// (int(NaN) is platform-defined and panics as an index).
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	empty := true
	for _, s := range c.series {
		for i := range s.X {
			if !isFinite(s.X[i]) || !isFinite(s.Y[i]) {
				continue
			}
			empty = false
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if empty {
		return errors.New("report: chart series have no finite points")
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.Width))
	}
	for si, s := range c.series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if !isFinite(s.X[i]) || !isFinite(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(c.Width-1))
			row := int((s.Y[i] - minY) / (maxY - minY) * float64(c.Height-1))
			grid[c.Height-1-row][col] = m
		}
	}
	if c.Title != "" {
		if _, err := fmt.Fprintln(w, c.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%10.4g ┤%s\n", maxY, string(grid[0])); err != nil {
		return err
	}
	for _, line := range grid[1 : c.Height-1] {
		if _, err := fmt.Fprintf(w, "%10s │%s\n", "", string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%10.4g ┤%s\n", minY, string(grid[c.Height-1])); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s └%s\n", "", strings.Repeat("─", c.Width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%11s%-10.4g%*s%10.4g\n", "", minX, c.Width-20, "", maxX); err != nil {
		return err
	}
	legend := make([]string, len(c.series))
	for i, s := range c.series {
		legend[i] = fmt.Sprintf("%c %s", markers[i%len(markers)], s.Name)
	}
	if _, err := fmt.Fprintf(w, "%11s%s", "", strings.Join(legend, "   ")); err != nil {
		return err
	}
	if c.XLabel != "" || c.YLabel != "" {
		if _, err := fmt.Fprintf(w, "\n%11sx: %s, y: %s", "", c.XLabel, c.YLabel); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// WriteSeriesCSV writes series sharing an x column to w. All series must
// have identical x values.
func WriteSeriesCSV(w io.Writer, xName string, series ...Series) error {
	if len(series) == 0 {
		return errors.New("report: no series")
	}
	n := len(series[0].X)
	for _, s := range series[1:] {
		if len(s.X) != n {
			return fmt.Errorf("report: series %q length %d != %d", s.Name, len(s.X), n)
		}
		for i := range s.X {
			if s.X[i] != series[0].X[i] {
				return fmt.Errorf("report: series %q x values differ at %d", s.Name, i)
			}
		}
	}
	cw := csv.NewWriter(w)
	header := append([]string{xName}, make([]string, len(series))...)
	for i, s := range series {
		header[i+1] = s.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 1+len(series))
	for i := 0; i < n; i++ {
		row[0] = strconv.FormatFloat(series[0].X[i], 'g', -1, 64)
		for j, s := range series {
			row[j+1] = strconv.FormatFloat(s.Y[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
