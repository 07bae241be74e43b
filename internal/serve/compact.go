package serve

import (
	"fmt"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/store"
)

// Compaction.
//
// A retaining titand grows its in-memory event log linearly with
// uptime. With Config.CompactDir set, a background compactor
// periodically seals the aged prefix of that log into on-disk columnar
// segments (internal/store) and drops it from memory, bounding the
// retained tail to roughly CompactAge of stream time plus one
// compaction interval of arrivals. The age cutoff is measured against
// the newest applied event, not the wall clock, so replayed historical
// logs compact exactly like live streams.
//
// Compaction preserves arrival order: it seals the longest prefix of
// the retained log whose events all predate the cutoff and never moves
// an event past another. That keeps the sealed history byte-faithful to
// the stream the detectors actually saw — a warm restart replays
// segment events in the exact order the alert engine and precursor
// warner originally consumed them, which is what makes its /alerts and
// /warnings byte-identical to a daemon that never restarted. (For an
// ordered stream the prefix is everything older than CompactAge; a
// disordered stream compacts conservatively rather than wrongly.)
//
// Locking: the seal prefix is carved under stateMu, but the slow part
// — column building and the disk write — runs without it. That is
// safe because the applier only ever appends at the tail: the prefix
// elements cannot move while the seal is in flight. Each chunk's
// publication is atomic under viewMu (segment registered and the same
// events trimmed from the retained tail in one critical section), so
// history queries taken at any instant see every event exactly once.
// Afterwards the tail is copied into a fresh backing array so the
// sealed events' memory is actually released. compactMu serializes
// compactions against each other and against snapshots.

// compactChunk caps the events per sealed segment, keeping individual
// segments (and the min/max pruning they enable) reasonably granular.
const compactChunk = dataset.DefaultSegmentEvents

// sealAttempts bounds the per-chunk retries for transient seal I/O
// failures (an ENOSPC that clears); the backoff between attempts is
// exponential with jitter, ~25/50 ms.
const sealAttempts = 3

// prepareChunk builds and durably commits one chunk's segment with
// jittered-exponential-backoff retries, without publishing it. A fault
// that clears within sealAttempts costs only the backoff; a persistent
// one surfaces after the last attempt and the events stay retained for
// the next compaction tick. Prepare is atomic on disk (temp + rename),
// so a failed attempt leaves nothing a retry could duplicate.
func (s *Server) prepareChunk(st *store.Store, chunk []console.Event) (*store.Prepared, error) {
	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		p, err := st.Prepare(chunk)
		if err == nil {
			return p, nil
		}
		if attempt+1 >= sealAttempts {
			return nil, err
		}
		s.metrics.compactRetries.Add(1)
		time.Sleep(jitterDur(backoff))
		backoff *= 2
	}
}

// sealedStore returns the segment store, opening CompactDir on first
// use. Returns (nil, nil) when compaction is not configured and no
// store was adopted by a warm start.
func (s *Server) sealedStore() (*store.Store, error) {
	s.sealedMu.Lock()
	defer s.sealedMu.Unlock()
	if s.sealed != nil {
		return s.sealed, nil
	}
	if s.cfg.CompactDir == "" {
		return nil, nil
	}
	st, _, err := store.OpenDir(s.cfg.CompactDir, store.OpenOptions{Mapped: true, FS: s.cfg.FS})
	if err != nil {
		return nil, fmt.Errorf("serve: compaction: %w", err)
	}
	s.sealed = st
	return st, nil
}

// SealedStore exposes the segment store behind the server without
// opening one (nil when compaction never ran and no warm start adopted
// one).
func (s *Server) SealedStore() *store.Store {
	s.sealedMu.Lock()
	defer s.sealedMu.Unlock()
	return s.sealed
}

// CompactNow runs one compaction pass with the configured age and
// minimum, returning how many events were sealed. A no-op (0, nil)
// when compaction is not configured.
func (s *Server) CompactNow() (int, error) {
	if s.cfg.CompactDir == "" {
		return 0, nil
	}
	return s.compact(s.cfg.CompactAge, s.cfg.CompactMin)
}

// compact seals the longest retained prefix whose events are all older
// than age (relative to the newest applied event) into segments,
// provided at least minEvents qualify, and drops it from the retained
// log.
func (s *Server) compact(age time.Duration, minEvents int) (int, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	st, err := s.sealedStore()
	if err != nil || st == nil {
		return 0, err
	}

	s.stateMu.Lock()
	cutoff := s.maxApplied.Add(-age)
	n := 0
	for n < len(s.events) && !s.events[n].Time.After(cutoff) {
		n++
	}
	if n == 0 || n < minEvents {
		s.stateMu.Unlock()
		return 0, nil
	}
	prefix := s.events[:n:n]
	s.stateMu.Unlock()
	defer s.metrics.observeStage(stageSeal, time.Now())

	sealed := 0
	var sealErr error
	for lo := 0; lo < n; lo += compactChunk {
		hi := min(lo+compactChunk, n)
		// The slow half — column build, write, fsync, rename — runs with
		// no reader-facing lock held. Publication is then a pure
		// in-memory flip under viewMu: the chunk becomes visible in the
		// sealed store and leaves the retained tail in one atomic step,
		// so a concurrent historyView never sees those events twice or
		// not at all.
		p, err := s.prepareChunk(st, prefix[lo:hi])
		if err != nil {
			sealErr = err
			break
		}
		s.viewMu.Lock()
		st.Publish(p)
		s.stateMu.Lock()
		s.events = s.events[hi-lo:] // O(1): drop the chunk just published
		s.stateMu.Unlock()
		s.viewMu.Unlock()
		sealed = hi
	}
	if sealed > 0 {
		// The per-chunk trims re-sliced the retained log in place; copy
		// the survivor into a backing array so the sealed prefix's memory
		// is actually collectable. It must be a fresh array — historyView
		// readers alias the old one lock-free — but it keeps the capacity
		// the log had reached (at most twice the length it reached since
		// the last pass, so a one-off backlog is not kept for ever), and
		// steady ingest appends into room that is already there instead
		// of doubling back up to it after every pass.
		s.stateMu.Lock()
		room := min(sealed+cap(s.events), 2*(sealed+len(s.events)))
		s.events = append(make([]console.Event, 0, room), s.events...)
		s.stateMu.Unlock()
		s.metrics.eventsSealed.Add(uint64(sealed))
		s.metrics.compactions.Add(1)
		s.lastCompact.Store(time.Now().Unix())

		// Advance the durable floor, then let the journal drop files the
		// floor now covers. A floor-write failure leaves the old floor:
		// the next restart replays those journal records on top of the
		// extra segments via the floor's delta arithmetic, and the write
		// is retried on the next pass.
		seq := s.sealedSeq.Add(uint64(sealed))
		if err := st.WriteSealedFloor(seq, uint64(st.EventCount())); err != nil {
			s.metrics.compactFailures.Add(1)
			return sealed, fmt.Errorf("serve: compaction: %w", err)
		}
		if j := s.journal.Load(); j != nil {
			j.Truncate(seq)
		}
	}
	if sealErr != nil {
		s.metrics.compactFailures.Add(1)
		return sealed, fmt.Errorf("serve: compaction: %w", sealErr)
	}
	return sealed, nil
}

// compactLoop is the background compactor started when CompactDir is
// configured; Shutdown stops it before the final seal.
func (s *Server) compactLoop() {
	defer s.compactWG.Done()
	t := time.NewTicker(s.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
			if _, err := s.CompactNow(); err != nil {
				// The failure counter is already bumped; the events stay
				// retained and the next tick retries.
				continue
			}
		}
	}
}
