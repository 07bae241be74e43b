package serve

import (
	"fmt"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/store"
)

// Shutdown snapshot.
//
// A draining titand flushes its event history to a dataset directory
// holding the same four artifacts a site keeps, so the batch pipeline
// (titanreport, xidtool, dataset.Load) can pick up exactly where the
// stream stopped. Only console.log carries data — the stream never
// sees the job log or nvidia-smi sweeps — but the other three
// artifacts are written as valid empty files so dataset.Load
// round-trips without special cases.
//
// The flush streams and preserves stream order: events are rendered
// straight from the sealed columnar segments (column by column, one
// line buffer) followed by the retained tail — compaction seals
// arrival-order prefixes, so that concatenation is the applied stream
// — never materializing the full history as a second []Event. The
// drain's peak memory no longer doubles the resident set the way the
// old copy-then-sort flush did, and the flat console.log parses to the
// same sequence the segments scan to, so both load paths agree.

// WriteSnapshot flushes the event history — sealed segments then the
// retained tail, in applied stream order — to dir as a loadable
// dataset. It fails when the server was configured with
// RetainEvents=false and has seen events, since the snapshot would
// silently lose them.
func (s *Server) WriteSnapshot(dir string) error {
	// compactMu keeps a concurrent compaction from carving the retained
	// slice mid-stream; the applier may keep appending, which the
	// captured three-index header below never observes.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	applied := s.metrics.eventsApplied.Load()
	s.stateMu.Lock()
	tail := s.events[:len(s.events):len(s.events)]
	s.stateMu.Unlock()

	var segs []*store.Segment
	if sealed := s.SealedStore(); sealed != nil {
		segs = sealed.Segments()
	}
	if !s.cfg.RetainEvents && applied > 0 {
		return fmt.Errorf("serve: snapshot of %d events requested but RetainEvents is off", applied)
	}
	if err := dataset.WriteStream(s.cfg.FS, dir, historyStream(segs, tail)); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	return nil
}

// historyStream yields the applied event history one event at a time:
// the sealed segments in seal order (each reconstructed lazily from
// its columns), then the retained tail. Compaction only ever seals
// prefixes of the arrival-ordered retained log, so this concatenation
// is exactly the stream the detectors consumed.
func historyStream(segs []*store.Segment, tail []console.Event) func() (console.Event, bool) {
	segIdx, i, j := 0, 0, 0
	return func() (console.Event, bool) {
		for segIdx < len(segs) && i >= segs[segIdx].Len() {
			segIdx++
			i = 0
		}
		if segIdx < len(segs) {
			ev := segs[segIdx].EventAt(i)
			i++
			return ev, true
		}
		if j < len(tail) {
			ev := tail[j]
			j++
			return ev, true
		}
		return console.Event{}, false
	}
}
