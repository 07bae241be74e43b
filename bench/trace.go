//go:build linux

package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans. The traced run wraps every call the benchmark makes into a
// layer's public functions in a span: name, start, end, the span that
// caused it, and the operation (batch ingested, query answered, report
// produced) it belongs to. N is the count of work units (lines, events,
// queries) taken at the same boundary, so per-unit figures are ratios of
// things measured in one place. Spans are kept in memory and written out
// once, when the run ends; tracing is off for every end-to-end number.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // shared by every span of one operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

// tracer records spans from one goroutine. A nil tracer records nothing,
// which is how the same replay runs untraced for the overhead figure.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // indices of open spans
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one; a span opened with an
// empty stack starts a new operation.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	s := span{ID: len(t.spans) + 1, Name: name, Start: int64(time.Since(t.t0))}
	if len(t.stack) == 0 {
		t.ops++
	} else {
		s.Parent = t.spans[t.stack[len(t.stack)-1]].ID
	}
	s.Op = t.ops
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, s)
}

// end closes the innermost open span, recording n units of work.
func (t *tracer) end(n int) {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	t.spans[i].N = n
}

// selfAgg is one span name's totals.
type selfAgg struct {
	Count  int     // spans
	N      int     // work units
	SelfNs int64   // Σ self time
	Each   []int64 // self time per span, for medians
}

// selfTimes computes each span's self time — its duration minus the part
// of that interval its child spans cover — and totals it by name.
// Children may overlap one another (parallel work); covered time is the
// union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]*selfAgg {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*selfAgg{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self := s.End - s.Start - covered
		a := out[s.Name]
		if a == nil {
			a = &selfAgg{}
			out[s.Name] = a
		}
		a.Count++
		a.N += s.N
		a.SelfNs += self
		a.Each = append(a.Each, self)
	}
	return out
}

// perUnit is Σ self time ÷ Σ units for one span name, in nanoseconds.
func perUnit(agg map[string]*selfAgg, name string) float64 {
	a := agg[name]
	if a == nil || a.N == 0 {
		return 0
	}
	return float64(a.SelfNs) / float64(a.N)
}

// medianSelf is the median self time of one span name, in nanoseconds.
func medianSelf(agg map[string]*selfAgg, name string) float64 {
	a := agg[name]
	if a == nil {
		return 0
	}
	v := make([]float64, len(a.Each))
	for i, ns := range a.Each {
		v[i] = float64(ns)
	}
	return median(v)
}

// write stores the spans with a small header as one JSON document.
func (t *tracer) write(path string, header map[string]any) error {
	doc := map[string]any{"header": header, "spans": t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
