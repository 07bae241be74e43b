package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/durable"
	"titanre/internal/store"
)

// Warm restart — the inverse of the SIGTERM flush and of a kill -9.
//
// A shutdown with compaction configured leaves a state directory whose
// segments subdirectory holds the complete applied history in sealed
// columnar form; a crashed daemon additionally leaves the write-ahead
// journal covering everything applied since the last compaction.
// WarmStart restores the derived state of the checkpoint a clean
// shutdown left (checkpoint.go), when it has a usable one, then replays
// the segments after the checkpoint's prefix — all of them without one —
// and the journal from the sealed floor, through the apply step the live
// pipeline uses (applyBatch), so the daemon resumes with /alerts and
// /warnings byte-identical to a daemon that never died
// (TestWarmRestartMatchesFullStream, TestCrashRestartMatchesUninterrupted,
// TestCheckpointRestart).
//
// Corrupt segments do not block the restart: they are quarantined
// (store.OpenOptions.Recover) and the daemon starts degraded, reporting the
// exact loss — segments and bytes from the quarantine move, events
// from the SEALED floor arithmetic (see store/floor.go).

// WarmStats reports what a warm start restored, replayed and recovered.
type WarmStats struct {
	// Replayed is the number of history events from segments or the flat
	// console.log the rebuilt state covers (journal events excluded);
	// Checkpointed of them were restored from the checkpoint, the rest
	// fed back through the pipeline.
	Replayed     int
	Checkpointed int
	// CheckpointUnused is why no checkpoint was restored ("" when one
	// was).
	CheckpointUnused string
	// FromSegments is true when the history came from sealed columnar
	// segments (the flat console.log was used otherwise).
	FromSegments bool
	// JournalReplayed counts events recovered from the write-ahead
	// journal — the applied tail a crash would otherwise have lost.
	JournalReplayed int
	// JournalTorn is true when journal replay stopped at a torn record,
	// the expected shape of a crash mid-append.
	JournalTorn bool
	// Quarantined counts segment files moved aside as corrupt;
	// EventsLost is the exact event count inside them (from the SEALED
	// floor; 0 when the store never compacted under a floor-writing
	// daemon).
	Quarantined int
	EventsLost  uint64
	// The wall time of each phase: opening the sealed segments (each
	// verified by SHA-256 and structure), reading and restoring the
	// checkpoint, feeding the history past it through the apply step
	// (segments, or the flat console.log) and opening and replaying the
	// journal.
	Open, CheckpointRestore, SegmentReplay, JournalReplay time.Duration
}

// WarmStart rebuilds the online state from a state directory: sealed
// segments under dir/segments are preferred (a compacting titand's
// complete history), restored from their checkpoint as far as it covers
// them; the dataset console.log is parsed when there are no segments, no
// sealed floor and no journal records. Events replayed
// from segments are not re-retained — they are already sealed — while
// console.log and journal events enter the retained log as if
// streamed, so a later compaction or snapshot sees them. A missing or
// empty directory is a cold start: (zero, nil).
//
// WarmStart must be called before any ingest is admitted (cmd/titand
// calls it before Serve). When compaction is configured, CompactDir
// must be dir/segments so new seals extend the same history. When
// JournalDir is configured, WarmStart is what opens the journal.
func (s *Server) WarmStart(dir string) (WarmStats, error) {
	var ws WarmStats
	segDir := filepath.Join(dir, dataset.SegmentsDir)
	if s.cfg.CompactDir != "" && filepath.Clean(s.cfg.CompactDir) != filepath.Clean(segDir) {
		return ws, fmt.Errorf("serve: warm start: CompactDir %s is not %s", s.cfg.CompactDir, segDir)
	}
	if s.cfg.JournalDir != "" && s.cfg.CompactDir == "" {
		return ws, fmt.Errorf("serve: warm start: JournalDir requires CompactDir (compaction drives journal truncation)")
	}
	// Temp files of a snapshot cut short by a crash; the store sweeps its
	// own directory.
	swept, err := durable.Sweep(s.cfg.FS, dir)
	if err != nil {
		return ws, fmt.Errorf("serve: warm start: %w", err)
	}
	// lap books the time since the last lap (since here, at first) to a
	// phase.
	last := time.Now()
	lap := func(phase *time.Duration) { now := time.Now(); *phase += now.Sub(last); last = now }
	st, rec, err := store.OpenDir(segDir, store.OpenOptions{Recover: true, Mapped: true, FS: s.cfg.FS})
	if err != nil {
		return ws, fmt.Errorf("serve: warm start: %w", err)
	}
	lap(&ws.Open)
	rec.OrphansRemoved += swept
	floorSeq, floorCount, haveFloor, err := st.ReadSealedFloor()
	if err != nil {
		return ws, fmt.Errorf("serve: warm start: %w", err)
	}

	// The sealed floor arithmetic: skip is the global sequence where
	// journal replay resumes; lost is the exact count inside the
	// quarantined segments. The delta term covers a crash between a
	// seal and the floor update.
	loaded := uint64(st.EventCount())
	skip := loaded
	if haveFloor {
		skip = floorSeq
		if loaded > floorCount {
			skip += loaded - floorCount
		}
		if floorCount > loaded {
			ws.EventsLost = floorCount - loaded
		}
	}
	ws.Quarantined = len(rec.Quarantined)
	s.recovMu.Lock()
	s.recovery = rec
	s.eventsLost = ws.EventsLost
	s.recovMu.Unlock()
	s.sealedSeq.Store(skip)

	// The checkpoint, when usable, is the state after its segment prefix;
	// otherwise the state starts empty at the first segment.
	segs := st.Segments()
	cp, unused := loadCheckpoint(st, rec, s.cfg)
	ws.CheckpointUnused = unused
	if cp != nil {
		s.adoptCheckpoint(cp)
		segs = segs[len(cp.segments):]
		ws.Checkpointed = int(cp.applied)
	}
	lap(&ws.CheckpointRestore)
	usedSegments := st.SegmentCount() > 0 || haveFloor || len(rec.Quarantined) > 0
	ws.FromSegments = usedSegments

	// The journal opens (and replays its surviving records) before any
	// console.log fallback: a journal with records is the authoritative
	// uncompacted tail, and on a first boot from a flat dataset the
	// flat events are appended to it so the journal alone covers the
	// retained log from then on.
	var journal *Journal
	var journalLines bytes.Buffer
	journalRecords := 0
	if s.cfg.JournalDir != "" {
		j, jrep, err := OpenJournal(JournalConfig{
			Dir:          s.cfg.JournalDir,
			Fsync:        s.cfg.JournalFsync,
			SyncInterval: s.cfg.JournalSyncInterval,
			RotateBytes:  s.cfg.JournalRotateBytes,
			FS:           s.cfg.FS,
		}, skip, func(line []byte) error {
			journalLines.Write(line)
			journalLines.WriteByte('\n')
			return nil
		})
		if err != nil {
			return ws, fmt.Errorf("serve: warm start: %w", err)
		}
		journal = j
		journalRecords = jrep.Records
		ws.JournalTorn = jrep.Torn
	}
	lap(&ws.JournalReplay)

	if !usedSegments && journalRecords == 0 {
		// Without a console.log either, this is a cold start: nothing to
		// replay, and the rest is a no-op.
		flat, err := s.cfg.FS.ReadFile(filepath.Join(dir, dataset.ConsoleFile))
		if err != nil && !os.IsNotExist(err) {
			return ws, fmt.Errorf("serve: warm start: %w", err)
		}
		events, err := console.NewCorrelator().ParseAll(bytes.NewReader(flat))
		if err != nil {
			return ws, fmt.Errorf("serve: warm start: %w", err)
		}
		// Flat events re-enter the retained log, and on a first boot with
		// a journal they are written ahead to it first so the journal
		// covers the whole retained log.
		if journal != nil && s.cfg.RetainEvents && len(events) > 0 {
			journal.appendEvents(events)
			_ = journal.Sync()
		}
		s.applyBatch(events, nil, s.cfg.RetainEvents, true)
		ws.Replayed += len(events)
	}

	// Segment replay, one segment at a time through the applier's own
	// apply step, in storage order — the arrival order the original
	// daemon applied (compaction and the snapshot both preserve it) — so
	// the rebuilt detector state is exactly what streaming the history
	// would have produced. Segment events are already sealed and are not
	// re-retained.
	var buf []console.Event
	for _, seg := range segs {
		buf = seg.AppendEvents(buf[:0])
		s.applyBatch(buf, nil, false, true)
		ws.Replayed += len(buf)
	}
	ws.Replayed += ws.Checkpointed
	lap(&ws.SegmentReplay)

	// Journal replay: parse the recovered renderings back into events
	// (AppendRaw round-trips exactly) and apply them the same way. These
	// events are the unsealed tail, so they are retained for the next
	// compaction.
	if journalRecords > 0 {
		jev, err := console.NewCorrelator().ParseAll(&journalLines)
		if err != nil {
			return ws, fmt.Errorf("serve: warm start: journal replay: %w", err)
		}
		if len(jev) != journalRecords {
			return ws, fmt.Errorf("serve: warm start: journal replay parsed %d events from %d records", len(jev), journalRecords)
		}
		s.applyBatch(jev, nil, s.cfg.RetainEvents, true)
		ws.JournalReplayed = len(jev)
		lap(&ws.JournalReplay)
	}

	if usedSegments {
		// Adopt the loaded store: new compactions seal into the same
		// history, /history scans it, and the shutdown snapshot streams
		// from it.
		s.sealedMu.Lock()
		s.sealed = st
		s.sealedMu.Unlock()
	}
	if journal != nil {
		s.journal.Store(journal)
	}
	// Restore the cluster alert-feed collector and reconcile it against
	// the events the rebuilt state covers, checkpointed and replayed: a
	// clean shutdown's snapshot covers them exactly, a crash (journal tail
	// applied after the snapshot was last written) shows up as a
	// covered-count mismatch and marks the feed incomplete rather than
	// silently wrong.
	if err := s.loadFeedSnapshot(dir, ws.Replayed+ws.JournalReplayed); err != nil {
		return ws, err
	}
	s.recovMu.Lock()
	s.warm = ws // what /stats books as restored and replayed
	s.recovMu.Unlock()
	return ws, nil
}
