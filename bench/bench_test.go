//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"titanre/internal/console"
)

func TestPercentileAndSummary(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("an empty sample must read NaN, not a fast zero")
	}
	if got := median([]float64{9, 1}); got != 5 {
		t.Errorf("median of two = %v, want their midpoint 5", got)
	}
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.P50 != 2 || s.Max != 3 {
		t.Errorf("summarize(3,1,2) = %+v", s)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	if d := relDiff(100, 90, true); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("a higher-is-better metric falling 100 -> 90 is 10%% worse, got %v", d)
	}
	if d := relDiff(100, 90, false); math.Abs(d+0.1) > 1e-12 {
		t.Errorf("a lower-is-better metric falling 100 -> 90 is 10%% better, got %v", d)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100, N: 1},
		{ID: 2, Parent: 1, Name: "decode", Start: 10, End: 40, N: 8},
		{ID: 3, Parent: 1, Name: "apply", Start: 30, End: 60, N: 8},   // overlaps decode by 10
		{ID: 4, Parent: 3, Name: "journal", Start: 35, End: 50, N: 8}, // nested in apply
		{ID: 5, Parent: 1, Name: "decode", Start: 90, End: 120, N: 2}, // runs past its parent
	}
	agg := selfTimes(spans)
	for name, want := range map[string]int64{
		"op":      100 - (30 + 20 + 10), // union of children, clipped to the parent
		"decode":  30 + 30,
		"apply":   30 - 15,
		"journal": 15,
	} {
		if got := agg[name].SelfNs; got != want {
			t.Errorf("self time of %q = %d, want %d", name, got, want)
		}
	}
	if got := perUnit(agg, "decode"); got != 6 {
		t.Errorf("decode per unit = %v, want 60ns over 10 units", got)
	}
	if got := perUnit(agg, "absent"); got != 0 {
		t.Errorf("an absent span reads %v", got)
	}

	tr := newTracer()
	tr.begin("a")
	tr.begin("b")
	tr.end(2)
	tr.end(1)
	tr.begin("c")
	tr.end(1)
	if len(tr.spans) != 3 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != 0 ||
		tr.spans[0].Op != tr.spans[1].Op || tr.spans[2].Op == tr.spans[0].Op {
		t.Errorf("tracer nesting wrong: %+v", tr.spans)
	}
	var off *tracer
	off.begin("x") // a nil tracer is tracing switched off
	off.end(1)
}

func TestShiftedCorpus(t *testing.T) {
	c, err := newCorpus(3, quickScale)
	if err != nil {
		t.Fatal(err)
	}
	if want := quickScale.Copies * c.periodLines(); c.lines() != want || len(c.events) != want || countLines(c.raw) != want {
		t.Fatalf("history has %d lines, %d events, %d newlines; want %d", c.lines(), len(c.events), countLines(c.raw), want)
	}
	for i := 1; i < len(c.events); i++ {
		if c.events[i].Time.Before(c.events[i-1].Time) {
			t.Fatalf("time goes backwards at line %d: %v after %v", i, c.events[i].Time, c.events[i-1].Time)
		}
	}
	span := c.cfg.End.Sub(c.cfg.Start)
	n := c.periodLines()
	for _, i := range []int{0, n / 2, n - 1} {
		a, b := c.events[i], c.events[n+i]
		if !b.Time.Equal(a.Time.Add(span)) {
			t.Errorf("copy 1 of line %d is at %v, want %v", i, b.Time, a.Time.Add(span))
		}
		b.Time = a.Time
		if a != b {
			t.Errorf("copy 1 of line %d differs beyond its time: %v vs %v", i, a, b)
		}
	}
	if got := c.prefix(n); got.lines() != n || !bytes.Equal(got.raw, c.slice(0, n)) {
		t.Errorf("prefix(%d) holds %d lines", n, got.lines())
	}
	again, err := newCorpus(3, quickScale)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.raw, again.raw) {
		t.Error("the same seed rendered a different corpus")
	}
	other, err := newCorpus(4, quickScale)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c.raw, other.raw) {
		t.Error("another seed rendered the same corpus")
	}

	// shiftCopies on a hand-made period: exact count, monotone, untouched fields.
	t0 := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	period := []console.Event{{Time: t0, Node: 1, Code: 13}, {Time: t0.Add(time.Hour), Node: 2, Code: 31}}
	out := shiftCopies(period, 2*time.Hour, 3)
	if len(out) != 6 || !out[4].Time.Equal(t0.Add(4*time.Hour)) || out[5].Node != 2 || !period[0].Time.Equal(t0) {
		t.Errorf("shiftCopies = %v", out)
	}
}

func TestVisibleLatency(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []appliedSample{{at(0), 100}, {at(10), 110}, {at(20), 120}, {at(30), 125}}
	due := []time.Time{at(1), at(2), at(3)} // batches of 10 lines over a base of 100
	got := visibleMs(samples, 100, 10, due)
	if want := []float64{9, 18}; !reflect.DeepEqual(got, want) {
		t.Errorf("visibleMs = %v, want %v (the third batch never became visible)", got, want)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables this package
// measures by, so the declared contract cannot drift from the code.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricSpec                 `json:"end_to_end"`
		PerLayer   []metricSpec                 `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the code measures for %d", doc.RunSeconds, runSeconds)
	}
	declared := declaredWorkloads()
	if len(doc.Workloads) != len(declared) {
		t.Fatalf("%d workloads declared, the code declares %d", len(doc.Workloads), len(declared))
	}
	for i, w := range declared {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, implemented %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end declared %+v\nmeasured %+v", doc.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer declared %+v\nmeasured %+v", doc.PerLayer, perLayerSpecs)
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		if seen[s.Name] || len(s.Name) > 64 || len(s.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or over the contract's length limits", s.Name, s.Unit)
		}
		seen[s.Name] = true
	}
}

// TestQuickSuite runs every workload, every oracle and the traced run at
// quick scale against freshly built binaries. Timings are printed, not
// asserted: what must hold is that every comparison passes and every
// metric is measured.
func TestQuickSuite(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	r := &run{env: e, sc: quickScale, seed: 1, seconds: 0.5, logf: t.Logf}
	if code := runSuite(r, true); code != 0 {
		t.Fatalf("quick suite exited %d (see output)", code)
	}
}
