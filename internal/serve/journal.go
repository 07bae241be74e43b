package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/console"
	"titanre/internal/durable"
)

// The arrival-order write-ahead journal.
//
// Compaction makes the applied history durable only every
// CompactInterval; everything younger lives in the retained tail and
// dies with the process. The journal closes that window: the applier
// writes every event's canonical console rendering (AppendRaw — the
// same bytes a segment re-renders to) to an on-disk log BEFORE folding
// the event into the online state, so a kill -9 daemon restarts by
// replaying segments and then the journal and lands in exactly the
// state an uninterrupted daemon would hold. The renderings are the ones
// the decode gate made and proved byte-equal to the line: the request's
// goroutine frames them where they lie (frameDecoder) and a batch is one
// Write of bytes that existed at hand-off.
//
// Format. Files named wal-<firstSeq>.wal (zero-padded, so name order
// is sequence order) under the journal directory. Each starts with a
// 20-byte header — magic "TITANWAL", u32 version, u64 firstSeq — and
// carries framed records: u32 payload length, u32 CRC-32C, payload
// (one rendered console line, no newline). Sequence numbers are
// implicit: header firstSeq plus record index. The global sequence is
// the event's index in the daemon lineage's applied arrival stream,
// the same numbering the SEALED floor file uses.
//
// The prefix property. Replay stops at the first torn frame, CRC
// mismatch or sequence gap — everything before it is applied,
// everything after discarded — so a restarted daemon's state is always
// a prefix of the admitted stream, never a subsequence with holes.
// Append failures preserve the property by wedging the journal: once a
// write fails nothing more is appended until a rotation to a fresh
// file (whose header carries the true next sequence) succeeds, so a
// gap shows up as a firstSeq jump that replay detects and stops at,
// rather than silently missing records mid-file.
//
// Rotation is by size; truncation is driven by compaction: once the
// sealed floor covers a whole file, the file is deleted. Fsync policy
// trades ingest overhead against the crash-loss window: "always"
// syncs at every batch commit, "interval" syncs on a timer (default
// 100 ms), "off" leaves it to the page cache.

// Fsync policy names for Config.JournalFsync.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncOff      = "off"
)

const (
	walMagic      = "TITANWAL"
	walVersion    = 1
	walHeaderSize = 8 + 4 + 8
	walFrameSize  = 4 + 4
	// walMaxRecord bounds one record; longer length fields mean a torn
	// or corrupt frame (console lines are capped at 1 MiB upstream).
	walMaxRecord = 1 << 20
)

var (
	walByteOrder = binary.LittleEndian
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
)

// JournalConfig tunes one journal (derived from serve.Config).
type JournalConfig struct {
	Dir          string
	Fsync        string        // always | interval | off
	SyncInterval time.Duration // interval policy cadence
	RotateBytes  int64         // rotate the current file past this size
	FS           durable.FS    // nil is durable.OS
}

// JournalReplay reports what opening a journal recovered.
type JournalReplay struct {
	// Records is the number of records handed to the apply callback.
	Records int
	// Skipped counts records below the caller's skip floor (already
	// sealed into segments).
	Skipped int
	// Torn is true when replay stopped at a torn or corrupt frame (the
	// expected shape of a crash mid-append; the tail was discarded).
	Torn bool
	// FilesRemoved counts journal files deleted because they sat past a
	// torn frame or a sequence gap and could never replay contiguously.
	FilesRemoved int
}

// JournalStats is a point-in-time counter snapshot for /stats and
// /metrics.
type JournalStats struct {
	NextSeq        uint64 `prom:"journal_next_seq" help:"Global sequence the next journaled event receives."`
	Appends        uint64 `prom:"journal_appends_total" help:"Events framed into the write-ahead journal."`
	AppendFailures uint64 `prom:"journal_append_failures_total" help:"Events applied but not journaled because the journal was wedged by an I/O failure."`
	Syncs          uint64 `prom:"journal_syncs_total" help:"Journal fsync calls (policy-dependent)."`
	Rotations      uint64 `prom:"journal_rotations_total" help:"Journal file rotations."`
	FilesRemoved   uint64 `prom:"journal_files_removed_total" help:"Journal files deleted after the sealed floor covered them."`
	Wedged         bool   `prom:"journal_wedged" help:"1 while the journal is wedged by an append failure (recovers at the next rotation)."`
}

type walFile struct {
	name  string
	first uint64
}

// Journal is the open write-ahead journal. One goroutine (the applier)
// appends; the interval syncer and truncation share the mutex.
type Journal struct {
	cfg JournalConfig

	mu     sync.Mutex
	f      durable.File
	pend   []byte // Append's framed records, npend of them, until Commit writes them
	npend  int
	size   int64
	files  []walFile // surviving files in sequence order; last is open
	next   uint64    // global seq of the next record appended
	wedged bool
	dirty  bool // bytes written since the last fsync

	stop     chan struct{}
	syncerWG sync.WaitGroup

	appends        atomic.Uint64
	appendFailures atomic.Uint64
	syncs          atomic.Uint64
	rotations      atomic.Uint64
	filesRemoved   atomic.Uint64
}

// OpenJournal opens (or initializes) the journal in cfg.Dir, replaying
// every surviving record with sequence >= skip through apply in
// order. Replay stops at the first torn frame or sequence gap; files
// past the stop are deleted (their records can never be applied
// contiguously) and appending resumes in a fresh file whose header
// records the true next sequence. The caller applies the replayed
// lines before admitting new ingest.
func OpenJournal(cfg JournalConfig, skip uint64, apply func(line []byte) error) (*Journal, JournalReplay, error) {
	var rep JournalReplay
	switch cfg.Fsync {
	case FsyncAlways, FsyncInterval, FsyncOff:
	case "":
		cfg.Fsync = FsyncInterval
	default:
		return nil, rep, fmt.Errorf("serve: journal: unknown fsync policy %q (always, interval, off)", cfg.Fsync)
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 100 * time.Millisecond
	}
	if cfg.RotateBytes <= 0 {
		cfg.RotateBytes = 4 << 20
	}
	cfg.FS = durable.Or(cfg.FS)
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, rep, fmt.Errorf("serve: journal: %w", err)
	}

	entries, err := cfg.FS.ReadDir(cfg.Dir)
	if err != nil {
		return nil, rep, fmt.Errorf("serve: journal: %w", err)
	}
	j := &Journal{cfg: cfg, next: skip}
	expected := skip
	stopped := false // torn frame or gap seen; remove everything after
	// Name order is sequence order.
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		path := filepath.Join(cfg.Dir, name)
		if stopped {
			if cfg.FS.Remove(path) == nil {
				rep.FilesRemoved++
			}
			continue
		}
		first, recs, tornAt, err := readWALFile(cfg.FS, path, expected, skip, apply, &rep)
		if err != nil {
			return nil, rep, err
		}
		switch {
		case tornAt == tornHeader || first > expected:
			// Unreadable header, or a sequence gap: this file and
			// everything after it can never replay contiguously.
			rep.Torn = rep.Torn || tornAt == tornHeader
			stopped = true
			if cfg.FS.Remove(path) == nil {
				rep.FilesRemoved++
			}
			continue
		case tornAt > 0:
			// Torn mid-file: the valid prefix replayed; drop the tail
			// and everything after.
			rep.Torn = true
			stopped = true
			if err := cfg.FS.Truncate(path, tornAt); err != nil {
				return nil, rep, fmt.Errorf("serve: journal: truncating torn tail of %s: %w", name, err)
			}
		}
		// Records below the skip floor are sealed already: a file may end
		// short of it (torn, or a skipped prefix), the next sequence never
		// does.
		expected = max(expected, first+uint64(recs))
		j.files = append(j.files, walFile{name: name, first: first})
	}
	j.next = expected

	// Always resume in a fresh file: its header pins the true next
	// sequence, so even a journal wedged by the previous incarnation
	// restarts contiguous.
	if err := j.rotateLocked(); err != nil {
		return nil, rep, err
	}
	if cfg.Fsync == FsyncInterval {
		j.stop = make(chan struct{})
		j.syncerWG.Add(1)
		go j.syncLoop()
	}
	return j, rep, nil
}

// tornHeader marks a file whose header itself was unreadable.
const tornHeader int64 = -1

// readWALFile replays one journal file. Returns the header firstSeq,
// how many records were read (applied or skipped), and tornAt: 0 for a
// clean read, tornHeader for a bad header, else the byte offset of the
// first torn frame. When first > expected the caller treats the whole
// file as a gap; records are not applied in that case (the scan bails
// out immediately).
func readWALFile(fsys durable.FS, path string, expected, skip uint64, apply func([]byte) error, rep *JournalReplay) (first uint64, recs int, tornAt int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil || len(data) < walHeaderSize || string(data[:8]) != walMagic || walByteOrder.Uint32(data[8:12]) != walVersion {
		return 0, 0, tornHeader, nil
	}
	first = walByteOrder.Uint64(data[12:20])
	if first > expected {
		return first, 0, 0, nil // gap; caller removes the file
	}
	for off := walHeaderSize; off < len(data); recs++ {
		if len(data)-off < walFrameSize {
			return first, recs, int64(off), nil // torn frame header
		}
		length := walByteOrder.Uint32(data[off:])
		end := off + walFrameSize + int(length)
		if length > walMaxRecord || end > len(data) || crc32.Checksum(data[off+walFrameSize:end], castagnoli) != walByteOrder.Uint32(data[off+4:]) {
			return first, recs, int64(off), nil // torn or corrupt record
		}
		if first+uint64(recs) >= skip {
			if err := apply(data[off+walFrameSize : end]); err != nil {
				return first, recs, 0, fmt.Errorf("serve: journal: replaying %s record %d: %w", filepath.Base(path), recs, err)
			}
			rep.Records++
		} else {
			rep.Skipped++
		}
		off = end
	}
	return first, recs, 0, nil
}

// sealFrame fills in the header of one record laid out as walFrameSize
// spare bytes, then the payload: its length and CRC-32C.
func sealFrame(rec []byte) {
	payload := rec[walFrameSize:]
	walByteOrder.PutUint32(rec[0:4], uint32(len(payload)))
	walByteOrder.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
}

// frameDecoder returns a decoder that leaves every event it decodes (or
// is handed through Render) in buf as one journal record.
func frameDecoder(buf []byte) console.Decoder {
	return console.Decoder{Buf: buf, Room: walFrameSize, Seal: sealFrame}
}

// Append frames one rendered console line for the journal. The caller
// appends every event of a batch and then calls Commit, which writes
// them; raw may be reused after return. A failed append wedges the
// journal — see the package comment — but never blocks ingest.
func (j *Journal) Append(raw []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := len(j.pend)
	j.pend = append(append(j.pend, make([]byte, walFrameSize)...), raw...)
	sealFrame(j.pend[start:])
	j.npend++
}

// writeLocked books n framed records and hands the file all of them in
// one Write, unless the journal is wedged. A failing or short Write wedges
// it, the records counted as failures (a short write's bytes are a torn
// tail replay truncates). Records the journal does not take are applied
// but not journaled; the sequence still advances so the recovery rotation
// records the gap honestly.
func (j *Journal) writeLocked(frames []byte, n int) (err error) {
	taken := 0
	if !j.wedged && n > 0 {
		if _, err = j.f.Write(frames); err != nil {
			j.wedged = true
		} else {
			taken = n
			j.size += int64(len(frames))
			j.dirty = true
		}
	}
	j.next += uint64(n)
	j.appends.Add(uint64(taken))
	j.appendFailures.Add(uint64(n - taken))
	return err
}

// flushLocked writes the records Append has framed.
func (j *Journal) flushLocked() error {
	err := j.writeLocked(j.pend, j.npend)
	j.pend, j.npend = j.pend[:0], 0
	return err
}

// Commit ends one batch: write, fsync under the "always" policy, and
// rotate when the current file is over size. A wedged journal uses the
// commit point to attempt recovery by rotating to a fresh file.
func (j *Journal) Commit() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.commitLocked()
}

func (j *Journal) commitLocked() {
	if _ = j.flushLocked(); j.wedged { // a failed write has wedged it: same recovery
		if j.rotateLocked() == nil {
			j.wedged = false
		}
		return
	}
	if j.cfg.Fsync == FsyncAlways {
		if err := j.syncLocked(); err != nil {
			j.wedged = true
			return
		}
	}
	if j.size >= j.cfg.RotateBytes {
		if err := j.rotateLocked(); err != nil {
			j.wedged = true
		}
	}
}

// appendFrames writes one batch ahead of its apply under one hold of the
// lock: n records the request's goroutine already framed (frameDecoder),
// one Write, one commit. An empty batch commits nothing.
func (j *Journal) appendFrames(frames []byte, n int) {
	if n == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.flushLocked() // nothing, unless Append was used beside this
	_ = j.writeLocked(frames, n)
	j.commitLocked()
}

// appendEvents journals events that come without their lines — a first
// boot from a flat console.log — framing each one's rendering as the
// decoder would have and writing them a batch at a time.
func (j *Journal) appendEvents(events []console.Event) {
	d := frameDecoder(nil)
	for lo := 0; lo < len(events); lo += 1024 {
		batch := events[lo:min(lo+1024, len(events))]
		d.Buf = d.Buf[:0]
		for i := range batch {
			d.Render(batch[i])
		}
		j.appendFrames(d.Buf, len(batch))
	}
}

// Sync forces buffered records to disk (the interval syncer and Close
// use it; tests call it to pin durability points).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wedged {
		return nil
	}
	if err := j.flushLocked(); err != nil {
		return err
	}
	if !j.dirty {
		return nil
	}
	if err := j.syncLocked(); err != nil {
		j.wedged = true
		return err
	}
	return nil
}

func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	j.syncs.Add(1)
	return nil
}

// rotateLocked seals the current file (write + fsync unless the policy
// is off) and opens a fresh one whose header carries j.next.
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := j.flushLocked(); err != nil {
			return err
		}
		if j.cfg.Fsync != FsyncOff {
			if err := j.syncLocked(); err != nil {
				return err
			}
		}
		if err := j.f.Close(); err != nil {
			return err
		}
		j.f = nil
	}
	name := fmt.Sprintf("wal-%020d.wal", j.next)
	// A name collision can only be a record-less file from a previous
	// incarnation (a file with records would have advanced next past
	// its firstSeq), so truncating it loses nothing.
	f, err := j.cfg.FS.Create(filepath.Join(j.cfg.Dir, name))
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	walByteOrder.PutUint32(hdr[8:12], walVersion)
	walByteOrder.PutUint64(hdr[12:20], j.next)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("serve: journal: %w", err)
	}
	if err := j.cfg.FS.SyncDir(j.cfg.Dir); err != nil {
		f.Close()
		return fmt.Errorf("serve: journal: %w", err)
	}
	if len(j.files) > 0 && j.files[len(j.files)-1].name == name {
		j.files = j.files[:len(j.files)-1]
	}
	j.files = append(j.files, walFile{name: name, first: j.next})
	j.f = f
	j.size = walHeaderSize
	j.dirty = false
	j.rotations.Add(1)
	return nil
}

// Truncate deletes journal files wholly covered by the sealed floor:
// file i can go once file i+1 starts at or below sealedSeq (every
// record in i then has seq < sealedSeq). The open file always stays.
func (j *Journal) Truncate(sealedSeq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	keep := 0
	for keep+1 < len(j.files) && j.files[keep+1].first <= sealedSeq {
		if j.cfg.FS.Remove(filepath.Join(j.cfg.Dir, j.files[keep].name)) != nil {
			break
		}
		j.filesRemoved.Add(1)
		keep++
	}
	if keep > 0 {
		j.files = append([]walFile(nil), j.files[keep:]...)
		_ = j.cfg.FS.SyncDir(j.cfg.Dir) // a removal lost to a crash is replayed and skipped
	}
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	wedged := j.wedged
	next := j.next
	j.mu.Unlock()
	return JournalStats{
		NextSeq:        next,
		Appends:        j.appends.Load(),
		AppendFailures: j.appendFailures.Load(),
		Syncs:          j.syncs.Load(),
		Rotations:      j.rotations.Load(),
		FilesRemoved:   j.filesRemoved.Load(),
		Wedged:         wedged,
	}
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.cfg.Dir }

// Close stops the interval syncer, writes what is pending, fsyncs (unless the policy
// is off) and closes the current file.
func (j *Journal) Close() error {
	if j.stop != nil {
		close(j.stop)
		j.syncerWG.Wait()
		j.stop = nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if !j.wedged {
		err = j.flushLocked()
		if err == nil && j.cfg.Fsync != FsyncOff && j.dirty {
			err = j.syncLocked()
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// syncLoop is the interval-policy background syncer.
func (j *Journal) syncLoop() {
	defer j.syncerWG.Done()
	t := time.NewTicker(j.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			_ = j.Sync()
		}
	}
}
