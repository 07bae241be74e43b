package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/failpoint"
	"titanre/internal/predict"
	"titanre/internal/store"
)

// Crash-recovery tests: the contract is that a daemon killed without
// warning (no drain, no snapshot) warm-starts from its state directory
// — sealed segments plus the write-ahead journal — byte-identical to a
// daemon that never died, and that a daemon facing corrupt storage
// starts degraded with exact loss accounting instead of not starting.

// crashConfig is the state-directory wiring every crash test uses:
// compaction plus journal rooted under dir.
func crashConfig(dir, fsync string) Config {
	cfg := DefaultConfig()
	cfg.CompactDir = filepath.Join(dir, "segments")
	cfg.CompactAge = 48 * time.Hour
	cfg.CompactMin = 1
	cfg.CompactInterval = time.Hour // idle; tests compact explicitly
	cfg.JournalDir = filepath.Join(dir, "journal")
	cfg.JournalFsync = fsync
	return cfg
}

// copyTree snapshots a state directory the way a kill -9 freezes it:
// whatever bytes the files hold right now, nothing else.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying state dir: %v", err)
	}
}

// mustEqualState asserts two daemons agree byte-for-byte on the alert
// and warning surfaces and on the applied-event accounting.
func mustEqualState(t *testing.T, got, want *Server, needTraffic bool) {
	t.Helper()
	for _, path := range []string{"/alerts", "/warnings"} {
		g := serveGet(t, got, path)
		w := serveGet(t, want, path)
		if needTraffic && (len(g) == 0 || bytes.Equal(g, []byte("[]\n"))) {
			t.Fatalf("%s from the recovered daemon is empty; equivalence is vacuous", path)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s diverges after recovery (%d vs %d bytes)", path, len(g), len(w))
		}
	}
	sg, sw := got.StatsNow(), want.StatsNow()
	if sg.EventsApplied != sw.EventsApplied {
		t.Fatalf("recovered daemon applied %d events, reference %d", sg.EventsApplied, sw.EventsApplied)
	}
	if fmt.Sprint(sg.EventsByCode) != fmt.Sprint(sw.EventsByCode) {
		t.Fatalf("per-code totals diverge:\nrecovered: %v\nreference: %v", sg.EventsByCode, sw.EventsByCode)
	}
}

// TestCrashRestartMatchesUninterrupted is the tentpole contract, one fixed
// schedule on a one-replica fleet: daemon A journals every applied event,
// compacts part of its history, keeps applying — and "crashes" at the
// journal fsync of its last batch: the failpoint's crash hook snapshots
// the state directory as it stands there, the journal holding the whole
// uncompacted tail, and A is abandoned without Shutdown. Daemon B
// warm-starts from the frozen directory and must serve /alerts and
// /warnings byte-identical to daemon C, which streamed the same events in
// one uninterrupted life.
func TestCrashRestartMatchesUninterrupted(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	split := len(log) / 2
	split += bytes.IndexByte(log[split:], '\n') + 1
	front, back := log[:split], log[split:]

	parsed, err := console.NewCorrelator().ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := predict.DefaultConfig()
	pcfg.MinSupport = 5
	pcfg.MinConfidence = 0.01
	model := predict.Train(parsed, pcfg)
	if len(model.Rules()) == 0 {
		t.Fatal("predictor learned no rules; the equivalence needs /warnings traffic")
	}

	stateDir := t.TempDir()
	cfgA := crashConfig(stateDir, FsyncAlways)
	cfgA.Model = model
	a := testServer(t, cfgA)
	if _, err := a.WarmStart(stateDir); err != nil {
		t.Fatalf("daemon A cold start: %v", err)
	}
	ingestLog(t, a, front)
	if sealed, err := a.CompactNow(); err != nil || sealed == 0 {
		t.Fatalf("daemon A compacted %d events (%v), want >0", sealed, err)
	}

	// The crash: under the always policy every batch commit is an fsync
	// (a rotation is one more), so the len(batches)-th falls in the tail's
	// last batches. The hook freezes the state directory there, mid-commit.
	// Daemon A is never drained; its snapshot, final seal and journal close
	// never reach the copy.
	crashed := filepath.Join(t.TempDir(), "state")
	t.Cleanup(failpoint.DisableAll)
	t.Cleanup(func() { failpoint.OnCrash(nil) })
	failpoint.OnCrash(func(string) { copyTree(t, stateDir, crashed) })
	if err := failpoint.Enable("serve.journal.sync", fmt.Sprintf("crash:%d", len(chunkLog(back, 512)))); err != nil {
		t.Fatal(err)
	}
	ingestLog(t, a, back) // the tail lives only in the journal

	cfgB := crashConfig(crashed, FsyncAlways)
	cfgB.Model = model
	b := testServer(t, cfgB)
	ws, err := b.WarmStart(crashed)
	if err != nil {
		t.Fatalf("crash restart: %v", err)
	}
	survived := ws.Replayed + ws.JournalReplayed
	if !ws.FromSegments || ws.JournalReplayed == 0 || survived < len(events)-2*512 || survived > len(events) {
		t.Fatalf("crash restart replayed %+v, want segments plus a journal tail up to the last batch or two of %d events", ws, len(events))
	}
	if ws.Quarantined != 0 || ws.EventsLost != 0 {
		t.Fatalf("clean crash restart reported loss: %+v", ws)
	}

	cfgC := DefaultConfig()
	cfgC.Model = model
	c := testServer(t, cfgC)
	ingestLog(t, c, encodeLog(t, events[:survived])) // arrival order is stream order: B holds a prefix

	mustEqualState(t, b, c, true)
	if st := b.StatsNow(); st.Degraded || st.Journal == nil {
		t.Fatalf("recovered daemon stats %+v, want journaled and not degraded", st)
	}
}

// TestCrashRestartFsyncPolicies runs the same crash shape under the
// interval and off fsync policies. An explicit Sync pins the journal
// before the freeze, so recovery must still be complete — the policies
// trade the durability point, not the format.
func TestCrashRestartFsyncPolicies(t *testing.T) {
	events := simEvents()[:20000]
	log := encodeLog(t, events)
	split := len(log) / 2
	split += bytes.IndexByte(log[split:], '\n') + 1

	for _, fsync := range []string{FsyncInterval, FsyncOff} {
		t.Run(fsync, func(t *testing.T) {
			stateDir := t.TempDir()
			cfgA := crashConfig(stateDir, fsync)
			a := testServer(t, cfgA)
			if _, err := a.WarmStart(stateDir); err != nil {
				t.Fatal(err)
			}
			ingestLog(t, a, log[:split])
			if _, err := a.CompactNow(); err != nil {
				t.Fatal(err)
			}
			ingestLog(t, a, log[split:])
			if err := a.journal.Load().Sync(); err != nil {
				t.Fatalf("journal sync: %v", err)
			}

			crashed := filepath.Join(t.TempDir(), "state")
			copyTree(t, stateDir, crashed)

			b := testServer(t, crashConfig(crashed, fsync))
			ws, err := b.WarmStart(crashed)
			if err != nil {
				t.Fatalf("crash restart: %v", err)
			}
			if ws.JournalReplayed == 0 {
				t.Fatalf("crash restart replayed %+v, want a journal tail", ws)
			}

			c := testServer(t, DefaultConfig())
			ingestLog(t, c, log)
			mustEqualState(t, b, c, false)
		})
	}
}

// TestCrashWithoutJournalLosesOnlyUnsealedTail: with no journal, a
// crash loses exactly the events applied after the last seal — never
// more — and the survivor equals a daemon that streamed precisely the
// sealed prefix.
func TestCrashWithoutJournalLosesOnlyUnsealedTail(t *testing.T) {
	events := simEvents()[:20000]
	log := encodeLog(t, events)
	split := len(log) / 2
	split += bytes.IndexByte(log[split:], '\n') + 1

	stateDir := t.TempDir()
	cfgA := crashConfig(stateDir, "")
	cfgA.JournalDir = "" // crash-unsafe configuration, on purpose
	a := testServer(t, cfgA)
	if _, err := a.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	ingestLog(t, a, log[:split])
	sealed, err := a.CompactNow()
	if err != nil || sealed == 0 {
		t.Fatalf("compacted %d (%v)", sealed, err)
	}
	ingestLog(t, a, log[split:]) // doomed: retained only

	crashed := filepath.Join(t.TempDir(), "state")
	copyTree(t, stateDir, crashed)

	cfgB := crashConfig(crashed, "")
	cfgB.JournalDir = ""
	b := testServer(t, cfgB)
	ws, err := b.WarmStart(crashed)
	if err != nil {
		t.Fatalf("crash restart: %v", err)
	}
	if ws.Replayed != sealed {
		t.Fatalf("restart replayed %d events, want exactly the %d sealed", ws.Replayed, sealed)
	}

	// The reference streamed exactly the sealed prefix: arrival order is
	// stream order, so the sealed events are the first `sealed` lines.
	c := testServer(t, DefaultConfig())
	ingestLog(t, c, encodeLog(t, events[:sealed]))
	mustEqualState(t, b, c, false)
}

// TestQuarantineDegradedStart: a daemon whose sealed history rotted on
// disk must start anyway — corrupt segments quarantined, the loss
// counted exactly via the SEALED floor, and the degradation visible on
// /stats, /metrics and /healthz.
func TestQuarantineDegradedStart(t *testing.T) {
	events := simEvents()[:20000]
	log := encodeLog(t, events)

	stateDir := t.TempDir()
	a := NewServer(crashConfig(stateDir, FsyncAlways))
	if _, err := a.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	streamAll(t, a, tsA.URL, log)
	if _, err := a.CompactNow(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("daemon A shutdown: %v", err)
	}
	total := len(events)

	// Rot: flip one byte in the middle of the first sealed segment.
	segDir := filepath.Join(stateDir, "segments")
	victim := filepath.Join(segDir, "seg-000001.seg")
	seg, err := store.ReadSegmentFile(victim)
	if err != nil {
		t.Fatalf("reading victim segment: %v", err)
	}
	victimLen := seg.Len()
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	b := testServer(t, crashConfig(stateDir, FsyncAlways))
	ws, err := b.WarmStart(stateDir)
	if err != nil {
		t.Fatalf("degraded warm start refused to start: %v", err)
	}
	if ws.Quarantined != 1 {
		t.Fatalf("quarantined %d segments, want 1", ws.Quarantined)
	}
	if ws.EventsLost != uint64(victimLen) {
		t.Fatalf("counted %d events lost, want exactly %d (the victim's length)", ws.EventsLost, victimLen)
	}
	if ws.Replayed != total-victimLen {
		t.Fatalf("replayed %d events, want %d (total minus the hole)", ws.Replayed, total-victimLen)
	}
	if _, err := os.Stat(filepath.Join(segDir, "quarantine", "seg-000001.seg")); err != nil {
		t.Fatalf("victim not moved to quarantine: %v", err)
	}

	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	st := b.StatsNow()
	if !st.Degraded || st.QuarantinedSegments != 1 || st.EventsLost != uint64(victimLen) {
		t.Fatalf("stats do not carry the degradation: %+v", st)
	}
	var hz struct {
		Status  string `json:"status"`
		History string `json:"history"`
	}
	getJSON(t, tsB.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.History != "degraded" {
		t.Fatalf("healthz = %+v, want ok but degraded", hz)
	}
	metrics := string(getBody(t, tsB.URL+"/metrics"))
	for _, want := range []string{
		"titand_degraded 1",
		"titand_quarantined_segments 1",
		fmt.Sprintf("titand_events_lost_to_quarantine %d", victimLen),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics is missing %q", want)
		}
	}
	// The degraded daemon still serves and still ingests.
	streamAll(t, b, tsB.URL, encodeLog(t, events[:100]))
	if got := b.StatsNow().EventsApplied; got != uint64(total-victimLen+100) {
		t.Fatalf("degraded daemon applied %d events, want %d", got, total-victimLen+100)
	}
}

// TestCompactionRetriesTransientFault: a transient chunk-seal fault is
// retried with backoff and counted; a persistent fault fails the pass
// but keeps the events retained for the next one.
func TestCompactionRetriesTransientFault(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	events := simEvents()[:20000]
	log := encodeLog(t, events)

	stateDir := t.TempDir()
	s := testServer(t, crashConfig(stateDir, FsyncOff))
	if _, err := s.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	streamAll(t, s, ts.URL, log)

	// A persistent fault fails the pass and leaves the retained log
	// intact for the next one.
	if err := failpoint.Enable("serve.compact.chunk", "error"); err != nil {
		t.Fatal(err)
	}
	before := len(retained(s))
	if before == 0 {
		t.Fatal("nothing retained; the test needs sealable events")
	}
	if _, err := s.CompactNow(); err == nil {
		t.Fatal("compaction succeeded under a persistent fault")
	}
	if got := len(retained(s)); got != before {
		t.Fatalf("failed compaction changed the retained log: %d -> %d", before, got)
	}

	// A transient fault (two injected failures, then clear) is absorbed
	// by the retry loop; the pass succeeds and the retries are counted.
	if err := failpoint.Enable("serve.compact.chunk", "error:2"); err != nil {
		t.Fatal(err)
	}
	sealed, err := s.CompactNow()
	if err != nil || sealed == 0 {
		t.Fatalf("compaction did not survive a transient fault: %d (%v)", sealed, err)
	}
	if got := s.StatsNow().CompactionRetries; got < 2 {
		t.Fatalf("counted %d retries, want >= 2", got)
	}
}

// TestKillMidCompactionRecovery re-executes the test binary as a daemon
// that arms a SIGKILL at the segment-fsync failpoint and compacts: the
// process dies mid-seal, exactly the crash the journal exists for. The
// parent then warm-starts from the dead daemon's state directory and
// must match a reference that streamed everything in one life.
func TestKillMidCompactionRecovery(t *testing.T) {
	const n = 20000
	if dir := os.Getenv("TITAND_CRASH_HELPER_DIR"); dir != "" {
		// Helper process: journal everything, then die sealing.
		cfg := crashConfig(dir, FsyncAlways)
		s := NewServer(cfg)
		if _, err := s.WarmStart(dir); err != nil {
			os.Exit(3)
		}
		ts := httptest.NewServer(s.Handler())
		stats, err := StreamLog(context.Background(), ts.URL, bytes.NewReader(encodeLog(t, simEvents()[:n])), StreamOptions{Retry429: true})
		if err != nil || stats.LinesAccepted == 0 {
			os.Exit(4)
		}
		qctx, qcancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer qcancel()
		if err := s.Quiesce(qctx); err != nil {
			os.Exit(5)
		}
		if err := failpoint.Enable("store.segment.sync", "kill"); err != nil {
			os.Exit(6)
		}
		s.CompactNow() // SIGKILL fires at the first segment fsync
		os.Exit(7)     // the kill did not fire
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillMidCompactionRecovery$")
	cmd.Env = append(os.Environ(), "TITAND_CRASH_HELPER_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper daemon survived its kill site; output: %s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("helper failed oddly: %v; output: %s", err, out)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("helper exited %v, want SIGKILL; output: %s", err, out)
	}

	// The dead daemon's directory holds the journal (complete, fsync
	// always) and an orphaned temp segment from the interrupted seal.
	b := testServer(t, crashConfig(dir, FsyncAlways))
	warm, err := b.WarmStart(dir)
	if err != nil {
		t.Fatalf("restart after SIGKILL: %v", err)
	}
	if warm.JournalReplayed == 0 {
		t.Fatalf("restart replayed %+v, want the journaled history", warm)
	}
	if warm.Quarantined != 0 || warm.EventsLost != 0 {
		t.Fatalf("kill mid-seal must not lose events: %+v", warm)
	}

	c := testServer(t, DefaultConfig())
	ingestLog(t, c, encodeLog(t, simEvents()[:n]))
	mustEqualState(t, b, c, false)
}
