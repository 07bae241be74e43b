package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/predict"
	"titanre/internal/xid"
)

// The power-cut enumerator.
//
// One short run on a durable.Mem — a first life that rotates the
// journal, seals three segments, writes the floor, truncates the journal
// and drains (feed snapshot, flat snapshot, checkpoint), then a second
// life that warm-starts and ingests again — is recorded once: a Cut at
// every file-system boundary. Under each fsync policy the daemon restarts
// from every boundary's kill image (everything written), power-cut image
// (only what an fsync covered) and torn power-cut image (plus half the
// last unsynced write), and each restart is recorded in turn and cut
// again at every boundary of its own recovery. Every restart must start,
// not degraded, with no temp file left, its journal resuming at the
// sequence it applied up to, and serve /alerts, /warnings and
// events_by_code byte-identical to a daemon fed exactly its first
// events_applied lines. Every line whose batch commit returned before the
// boundary survives a kill, and a power cut under the always policy; a
// crash during recovery loses nothing the recovery had.

const (
	enumBatch   = 32 // lines a batch
	enumBatches = 6  // three in the first life, three in the second
)

// enumConfig is titand -warm-dir stateDir -journal -journal-fsync fsync,
// shaped so a few batches exercise every write: everything but the
// newest event is sealable, a journal file holds two batches (so some
// commits rotate and some do not), and the interval policy syncs only at
// rotation and close (its timer never fires), so one recording is one
// schedule.
func enumConfig(fsys durable.FS, fsync string, model *predict.Model) Config {
	cfg := memConfig(fsys, fsync)
	cfg.SnapshotDir = stateDir
	cfg.Model = model
	cfg.CompactAge = time.Nanosecond
	cfg.JournalSyncInterval = time.Hour
	cfg.JournalRotateBytes = 6 << 10
	return cfg
}

// enumRun is one recorded run: its cuts, and for each batch the index of
// the first cut its commit returned before.
type enumRun struct {
	cuts  []durable.Cut
	marks []int
}

// committed is how many lines had their batch commit return before cut i.
func (r enumRun) committed(i int) int {
	n := 0
	for _, m := range r.marks {
		if m <= i {
			n += enumBatch
		}
	}
	return n
}

// recordRun makes the one run — three batches and two compactions, a
// drain, a warm start and three more batches — on a fresh Mem, recording
// it, and checks it exercised every kind of write.
func recordRun(t *testing.T, fsync string, model *predict.Model, batches [][]byte) enumRun {
	t.Helper()
	mem := durable.NewMem()
	mem.Record(true)
	var run enumRun
	ingest := func(s *Server, batch []byte) {
		ingestLog(t, s, batch)
		run.marks = append(run.marks, len(mem.Cuts())-1)
	}
	a := NewServer(enumConfig(mem, fsync, model))
	if _, err := a.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	for i, batch := range batches[:3] {
		ingest(a, batch)
		if i < 2 {
			if n, err := a.CompactNow(); err != nil || n == 0 {
				t.Fatalf("compaction sealed %d (%v)", n, err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	b := testServer(t, enumConfig(mem, fsync, model))
	if ws, err := b.WarmStart(stateDir); err != nil || ws.Checkpointed != 3*enumBatch {
		t.Fatalf("second life warm start %+v (%v), want the first life's checkpoint", ws, err)
	}
	for _, batch := range batches[3:] {
		ingest(b, batch)
	}
	run.cuts = mem.Cuts()
	mem.Record(false)

	// The run did what the enumeration is for.
	count := func(op durable.Op, suffix string) int {
		n := 0
		for _, c := range run.cuts {
			if c.Op == op && strings.HasSuffix(c.Path, suffix) {
				n++
			}
		}
		return n
	}
	for _, want := range []struct {
		what   string
		op     durable.Op
		suffix string
		min    int
	}{
		{"journal files opened", durable.OpCreate, ".wal", 3},
		{"segment seals", durable.OpRename, ".seg", 3},
		{"floor writes", durable.OpRename, "/SEALED", 3},
		{"journal truncations", durable.OpRemove, ".wal", 1},
		{"checkpoint writes", durable.OpRename, "/" + checkpointFile, 1},
		{"feed snapshots", durable.OpRename, "/" + alertfeedFile, 1},
		{"flat snapshots", durable.OpRename, "/console.log", 1},
	} {
		if n := count(want.op, want.suffix); n < want.min {
			t.Fatalf("the run made %d %s, want at least %d", n, want.what, want.min)
		}
	}
	return run
}

// enumerator restarts daemons from images and holds them to the contract.
type enumerator struct {
	t     *testing.T
	fsync string
	model *predict.Model
	lines [][]byte // the stream, a line each
	refs  map[uint64][3]string
	// seen maps an image already restarted (imageKey) to the events its
	// restart applied.
	seen             map[[sha256.Size]byte]uint64
	restarts, nested int
}

// answers are the surfaces the contract compares.
func answers(t *testing.T, s *Server) [3]string {
	return [3]string{string(serveGet(t, s, "/alerts")), string(serveGet(t, s, "/warnings")), fmt.Sprint(s.StatsNow().EventsByCode)}
}

// ref is what a daemon fed exactly the first n lines answers.
func (e *enumerator) ref(n uint64) [3]string {
	if want, ok := e.refs[n]; ok {
		return want
	}
	cfg := DefaultConfig()
	cfg.Model = e.model
	s := NewServer(cfg)
	ingestLog(e.t, s, bytes.Join(e.lines[:n], nil))
	want := answers(e.t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		e.t.Fatal(err)
	}
	e.refs[n] = want
	return want
}

// imageKey digests every file an image holds, path and bytes.
func imageKey(t *testing.T, img *durable.Mem) [sha256.Size]byte {
	h := sha256.New()
	for _, p := range img.Paths() {
		data, err := img.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// cut restarts from each image of c — once per distinct image (imageKey)
// — and holds a restart from the
// kill image to killLines lines, from a power-cut one to powerLines. A
// first restart's recovery is cut in turn; recovering marks a cut of one,
// which is not.
func (e *enumerator) cut(c durable.Cut, at string, killLines, powerLines uint64, recovering bool) {
	for _, img := range []struct {
		kind string
		fs   *durable.Mem
		need uint64
	}{{"kill", c.Kill, killLines}, {"power cut", c.Power, powerLines}, {"torn power cut", c.Torn, powerLines}} {
		if img.fs == nil {
			continue
		}
		where := fmt.Sprintf("%s image before %v%s", img.kind, c, at)
		key := imageKey(e.t, img.fs)
		applied, ok := e.seen[key]
		if !ok {
			var recovery []durable.Cut
			applied, recovery = e.restart(img.fs, where, !recovering)
			e.seen[key] = applied
			for _, rc := range recovery {
				e.nested++
				e.cut(rc, " in recovery from the "+where, applied, applied, true)
			}
		}
		if applied < img.need {
			e.t.Errorf("%s: the restart holds %d lines, want the %d whose commit returned", where, applied, img.need)
		}
	}
}

// restart warm-starts a daemon from fsys and checks it. It returns the
// events the restart applied and, when asked to record its recovery, the
// cuts of that.
func (e *enumerator) restart(fsys *durable.Mem, where string, recordRecovery bool) (uint64, []durable.Cut) {
	t := e.t
	e.restarts++
	fsys.Record(recordRecovery)
	s := NewServer(enumConfig(fsys, e.fsync, e.model))
	defer func() {
		fsys.Record(false)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("%s: shutdown: %v", where, err)
		}
	}()
	ws, err := s.WarmStart(stateDir)
	if err != nil {
		t.Errorf("%s: warm start: %v", where, err)
		return 0, nil
	}
	var cuts []durable.Cut
	if recordRecovery {
		cuts = fsys.Cuts()
		fsys.Record(false)
	}
	st := s.StatsNow()
	applied := st.EventsApplied
	switch {
	case st.Degraded || st.EventsLost != 0 || ws.Quarantined != 0:
		t.Errorf("%s: degraded start %+v", where, ws)
	case st.Journal == nil || st.Journal.NextSeq != applied:
		t.Errorf("%s: the journal resumes at %+v with %d events applied", where, st.Journal, applied)
	case applied > uint64(len(e.lines)):
		t.Errorf("%s: %d events applied from a %d-line stream", where, applied, len(e.lines))
	}
	if temps := tempFiles(fsys); len(temps) > 0 {
		t.Errorf("%s: the restart left temp files %v", where, temps)
	}
	if applied <= uint64(len(e.lines)) && answers(t, s) != e.ref(applied) {
		t.Errorf("%s: the restart's %d events do not answer as a daemon fed the first %d lines", where, applied, applied)
	}
	return applied, cuts
}

func TestPowerCutEnumeration(t *testing.T) {
	// The month's first events, its job-wide XID 13 bursts thinned to
	// one line in sixteen: under the model below each XID 13 issues a
	// warning, and every restart renders /warnings.
	var events []console.Event
	for i, ev := range simEvents() {
		if len(events) < enumBatches*enumBatch && (ev.Code != xid.GraphicsEngineException || i%16 == 0) {
			events = append(events, ev)
		}
	}
	log := encodeLog(t, events)
	lines := bytes.SplitAfter(log, []byte("\n"))[:len(events)]
	var batches [][]byte
	for i := 0; i < len(lines); i += enumBatch {
		batches = append(batches, bytes.Join(lines[i:i+enumBatch], nil))
	}
	pcfg := predict.DefaultConfig()
	pcfg.Targets = []xid.Code{xid.GPUStoppedProcessing}
	pcfg.MinSupport = 5
	pcfg.MinConfidence = 0.01
	model := predict.Train(simEvents(), pcfg)

	for _, fsync := range []string{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(fsync, func(t *testing.T) {
			t.Parallel()
			run := recordRun(t, fsync, model, batches)
			e := &enumerator{t: t, fsync: fsync, model: model, lines: lines, refs: map[uint64][3]string{}, seen: map[[sha256.Size]byte]uint64{}}
			full := e.ref(uint64(len(lines)))
			if full[0] == "[]\n" || full[1] == "[]\n" {
				t.Fatalf("the stream raises no alert or no warning; the comparison is vacuous: %q", full[:2])
			}
			for i, c := range run.cuts {
				kill, power := uint64(run.committed(i)), uint64(0)
				if fsync == FsyncAlways {
					power = kill
				}
				e.cut(c, fmt.Sprintf(" (boundary %d of %d)", i, len(run.cuts)), kill, power, false)
			}
			t.Logf("%d boundaries, %d restarts from distinct images, %d boundaries in recovery; %d+%d bytes of alerts+warnings", len(run.cuts), e.restarts, e.nested, len(full[0]), len(full[1]))
		})
	}
}
