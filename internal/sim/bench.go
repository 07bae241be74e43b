package sim

import (
	"time"

	"titanre/internal/console"
)

// BenchHistory is the history bench/'s query workloads are shaped like,
// for the in-process benchmarks that stand beside them (serve's
// BenchmarkReadShapes, router's BenchmarkMergedReads — one corpus, so a
// merged read's figure sits next to one daemon's): 48,000 events taken
// evenly from a two-month default simulation, seven copies laid end to
// end, copy k shifted k periods on, times whole seconds.
func BenchHistory() []console.Event {
	const periodEvents, copies = 48000, 7
	cfg := DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 2, 0)
	all := Run(cfg).Events
	span := cfg.End.Sub(cfg.Start)
	out := make([]console.Event, 0, periodEvents*copies)
	for k := 0; k < copies; k++ {
		for i := 0; i < periodEvents; i++ {
			ev := all[i*len(all)/periodEvents]
			ev.Time = ev.Time.Add(time.Duration(k) * span).Truncate(time.Second)
			out = append(out, ev)
		}
	}
	return out
}
