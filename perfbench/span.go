package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call in a traced run. Start and End are offsets on
// the harness clock; Parent indexes the enclosing span (-1 for a root).
type Span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// spans records spans in memory; WriteFile exports them at the end of
// the run. A nil *spans records nothing, so untraced runs pay one nil
// check per probe.
type spans struct {
	mu   sync.Mutex
	clk  clock
	list []Span
}

func newSpans(clk clock) *spans { return &spans{clk: clk} }

// begin opens a span under parent and returns its index.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, Span{Name: name, Start: s.clk.Now(), Parent: parent})
	return len(s.list) - 1
}

// end closes span i.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	now := s.clk.Now()
	s.mu.Lock()
	s.list[i].End = now
	s.mu.Unlock()
}

// add records a span whose times the caller measured.
func (s *spans) add(name string, start, end time.Duration, parent int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, Span{Name: name, Start: start, End: end, Parent: parent})
	s.mu.Unlock()
}

// durations returns the durations in ms of every span with the given name.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, ms(sp.End-sp.Start))
		}
	}
	return out
}

// time runs fn inside a span and returns its duration. On a nil
// *spans it only times fn.
func (s *spans) time(name string, parent int, fn func() error) (time.Duration, error) {
	if s == nil {
		return stopwatch(fn)
	}
	i := s.begin(name, parent)
	t0 := s.clk.Now()
	err := fn()
	d := s.clk.Now() - t0
	s.end(i)
	return d, err
}

func (s *spans) WriteFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
