//go:build linux

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/sim"
)

// scale fixes the size of everything a run generates. The full scale is
// what BENCHMARK.json's numbers are measured at; the quick scale is the
// same code at a size `go test` can afford.
type scale struct {
	// Months is the simulated production period (sim.DefaultConfig
	// shortened to this horizon). PeriodEvents is how many of its events
	// make one period, taken evenly from the whole horizon: seeds differ
	// two-fold in how many events two months hold, and a corpus whose size
	// moved with the seed would move every figure with it. (The first
	// PeriodEvents events instead span 25 days on one seed and 43 on the
	// next, and every scan's cost followed: four seeds' best query rates
	// ranged 19% where the even sample's ranged 7%.) A seed that simulates
	// too few gets a longer horizon.
	Months       int `json:"months"`
	PeriodEvents int `json:"period_events"`
	// Copies is how many time-shifted copies of the period make up the
	// history corpus: the fleet is fixed-size, so a longer log on the
	// same 19,200 nodes is how the real log grows.
	Copies int `json:"copies"`
	// LiveRate is live_mixed's open-loop offered rate in lines/s, under
	// a tenth of this box's backfill rate: unsaturated, so latency shows
	// interference rather than starvation. Copies must cover one period
	// of sealed history plus run_seconds of stream at this rate.
	LiveRate int `json:"live_rate"`
	// Setups is how many times set-up runs; setup_s is the median.
	Setups int `json:"setups"`
	// BlockPasses is how many replays of the query sequence make one
	// repetition of query_sealed.
	BlockPasses int `json:"block_passes"`
	// TraceCopies sizes the short child-process reps the traced run
	// takes its public counters from.
	TraceCopies int `json:"trace_copies"`
}

var (
	fullScale  = scale{Months: 2, PeriodEvents: 48000, Copies: 7, LiveRate: 20000, Setups: 3, BlockPasses: 10, TraceCopies: 3}
	quickScale = scale{Months: 1, PeriodEvents: 16000, Copies: 2, LiveRate: 10000, Setups: 1, BlockPasses: 1, TraceCopies: 1}
)

const (
	backfillBatchLines = 1024
	liveBatchLines     = 256
)

// corpus is the generated input: one simulated period and the history
// built from it, rendered exactly as the programs will receive it.
type corpus struct {
	seed   int64
	cfg    sim.Config
	period *sim.Result
	// events is the history as the programs decode it from raw, which is
	// what every reference document is folded from.
	events []console.Event
	// raw is the rendered history, one '\n'-terminated console line per
	// event; lineOff[i] is where line i starts, lineOff[len] == len(raw).
	raw     []byte
	lineOff []int
	// simSeconds is how long sim.Run took (the sim.run_s layer metric).
	simSeconds float64
}

func (c *corpus) lines() int       { return len(c.lineOff) - 1 }
func (c *corpus) periodLines() int { return len(c.period.Events) }

// slice returns lines [lo, hi) of the rendered history.
func (c *corpus) slice(lo, hi int) []byte { return c.raw[c.lineOff[lo]:c.lineOff[hi]] }

// prefix returns a corpus holding only the first n lines, sharing storage.
func (c *corpus) prefix(n int) *corpus {
	if n >= c.lines() {
		return c
	}
	p := *c
	p.events = c.events[:n]
	p.raw = c.raw[:c.lineOff[n]]
	p.lineOff = c.lineOff[:n+1]
	return &p
}

// shiftCopies lays copies of one period end to end: copy k is the period
// with every timestamp moved k*span later, so time stays monotone across
// the seams and the line count is exactly copies*len(period).
func shiftCopies(period []console.Event, span time.Duration, copies int) []console.Event {
	out := make([]console.Event, 0, copies*len(period))
	for k := 0; k < copies; k++ {
		shift := time.Duration(k) * span
		for _, ev := range period {
			ev.Time = ev.Time.Add(shift)
			out = append(out, ev)
		}
	}
	return out
}

// render writes the events as console lines and records line starts.
func render(events []console.Event) (raw []byte, lineOff []int) {
	raw = make([]byte, 0, len(events)*128)
	lineOff = make([]int, 0, len(events)+1)
	for _, ev := range events {
		lineOff = append(lineOff, len(raw))
		raw = ev.AppendRaw(raw)
		raw = append(raw, '\n')
	}
	return raw, append(lineOff, len(raw))
}

// newCorpus simulates one period from the seed and builds the history.
// The seed stops here: programs only ever see the rendered lines.
func newCorpus(seed int64, sc scale) (*corpus, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	t0 := time.Now()
	var res *sim.Result
	for months := sc.Months; ; months++ {
		cfg.End = cfg.Start.AddDate(0, months, 0)
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if res = sim.Run(cfg); len(res.Events) >= sc.PeriodEvents {
			break
		}
		if months >= sc.Months+6 {
			return nil, fmt.Errorf("corpus: seed %d simulated only %d events in %d months", seed, len(res.Events), months)
		}
	}
	// Every len/PeriodEvents-th event, in order: the same count, the
	// whole horizon and the same fleet coverage on every seed.
	thinned := make([]console.Event, sc.PeriodEvents)
	for i := range thinned {
		thinned[i] = res.Events[i*len(res.Events)/sc.PeriodEvents]
	}
	res.Events = thinned
	c := &corpus{seed: seed, cfg: cfg, period: res, simSeconds: time.Since(t0).Seconds()}
	c.raw, c.lineOff = render(shiftCopies(res.Events, cfg.End.Sub(cfg.Start), sc.Copies))

	// Decode what was rendered: references must be folded from the events
	// the programs will see (second-resolution times), and a clean corpus
	// must never leave the decoder's fast path.
	cor := console.NewCorrelator()
	events, err := cor.ParseBytes(c.raw, 2)
	if err != nil {
		return nil, fmt.Errorf("corpus: decoding rendered history: %w", err)
	}
	if len(events) != c.lines() || cor.FastFallbacks != 0 || cor.Dropped+cor.Malformed+cor.Oversized != 0 {
		return nil, fmt.Errorf("corpus: rendered %d lines, decoded %d events (%d fallbacks, %d dropped, %d malformed)",
			c.lines(), len(events), cor.FastFallbacks, cor.Dropped, cor.Malformed)
	}
	c.events = events
	return c, nil
}

// writeDataset stores the one-period dataset directory titanreport reads.
func (c *corpus) writeDataset(dir string) error {
	return dataset.Write(dir, c.period)
}

// writeSealed builds a state directory whose segments hold the first n
// history events, the shape a cleanly shut-down titand leaves behind.
func (c *corpus) writeSealed(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return dataset.WriteSegments(dir, c.events[:n], 0)
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// newRand derives the parameter stream (cnames, time windows, request
// order) from the seed; kept apart from the simulation's own streams.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + 17)) }

// countLines counts newline-terminated records the way the daemons do.
func countLines(b []byte) int { return bytes.Count(b, []byte{'\n'}) }
