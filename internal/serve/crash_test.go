package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/predict"
	"titanre/internal/store"
)

// Crash-recovery tests: the contract is that a daemon killed without
// warning (no drain, no snapshot) warm-starts from its state directory
// — sealed segments plus the write-ahead journal — byte-identical to a
// daemon that never died, and that a daemon facing corrupt storage
// starts degraded with exact loss accounting instead of not starting.
// The crashes are images of a durable.Mem (powercut_test.go enumerates
// every one); one test kills a real process.

// stateDir is where the tests on a durable.Mem keep their state.
const stateDir = "/state"

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

// killImage is mem's kill image as it stands.
func killImage(mem *durable.Mem) *durable.Mem {
	cuts := mem.Cuts()
	return cuts[len(cuts)-1].Kill
}

// memConfig is crashConfig over stateDir on fsys.
func memConfig(fsys durable.FS, fsync string) Config {
	cfg := crashConfig(stateDir, fsync)
	cfg.FS = fsys
	return cfg
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

// TestCrashRestartMatchesUninterrupted is the tentpole contract, one
// fixed cut: daemon A journals every applied event, compacts part of its
// history, keeps applying — and loses power just before the journal
// fsync of its last batch. Daemon B warm-starts from that power-cut image
// and must serve /alerts and /warnings byte-identical to daemon C, which
// streamed the lines B holds in one uninterrupted life: every batch but
// the last, whose fsync never happened.
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

	mem := durable.NewMem()
	cfgA := memConfig(mem, FsyncAlways)
	cfgA.Model = model
	a := testServer(t, cfgA)
	if _, err := a.WarmStart(stateDir); err != nil {
		t.Fatalf("daemon A cold start: %v", err)
	}
	ingestLog(t, a, front)
	if sealed, err := a.CompactNow(); err != nil || sealed == 0 {
		t.Fatalf("daemon A compacted %d events (%v), want >0", sealed, err)
	}
	mem.Record(true)
	ingestLog(t, a, back) // the tail lives only in the journal
	cuts := mem.Cuts()
	mem.Record(false)
	last := -1
	for i, c := range cuts {
		if c.Op == durable.OpSync && strings.HasPrefix(c.Path, cfgA.JournalDir) {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("no journal fsync under the always policy")
	}

	cfgB := memConfig(cuts[last].Power, FsyncAlways)
	cfgB.Model = model
	b := testServer(t, cfgB)
	ws, err := b.WarmStart(stateDir)
	if err != nil {
		t.Fatalf("crash restart: %v", err)
	}
	survived := ws.Replayed + ws.JournalReplayed
	lastBatch := chunkLog(back, 512)
	if !ws.FromSegments || ws.JournalReplayed == 0 || survived != len(events)-console.CountLines(lastBatch[len(lastBatch)-1]) {
		t.Fatalf("crash restart replayed %+v, want segments plus a journal tail up to the last batch of %d events", ws, len(events))
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
// interval and off fsync policies, as a kill: the image keeps what was
// written, so recovery must still be complete — the policies trade the
// durability point against a power cut, not the format.
func TestCrashRestartFsyncPolicies(t *testing.T) {
	events := simEvents()[:20000]
	log := encodeLog(t, events)
	split := len(log) / 2
	split += bytes.IndexByte(log[split:], '\n') + 1

	for _, fsync := range []string{FsyncInterval, FsyncOff} {
		t.Run(fsync, func(t *testing.T) {
			mem := durable.NewMem()
			a := testServer(t, memConfig(mem, fsync))
			if _, err := a.WarmStart(stateDir); err != nil {
				t.Fatal(err)
			}
			ingestLog(t, a, log[:split])
			if _, err := a.CompactNow(); err != nil {
				t.Fatal(err)
			}
			ingestLog(t, a, log[split:])

			b := testServer(t, memConfig(killImage(mem), fsync))
			ws, err := b.WarmStart(stateDir)
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

	mem := durable.NewMem()
	cfgA := memConfig(mem, "")
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

	cfgB := memConfig(killImage(mem), "")
	cfgB.JournalDir = ""
	b := testServer(t, cfgB)
	ws, err := b.WarmStart(stateDir)
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
	seg, err := store.ReadSegmentFile(durable.OS, victim)
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

// TestCompactionRetriesTransientFault: a transient chunk-seal fault — a
// disk full for the next two segment creates — is retried with backoff
// and counted; a persistent one fails the pass but keeps the events
// retained for the next one.
func TestCompactionRetriesTransientFault(t *testing.T) {
	events := simEvents()[:20000]
	log := encodeLog(t, events)

	mem := durable.NewMem()
	cfg := memConfig(mem, FsyncOff)
	s := testServer(t, cfg)
	if _, err := s.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	streamAll(t, s, ts.URL, log)

	// A persistent fault — every attempt of the pass — fails it and
	// leaves the retained log intact for the next one.
	mem.Fail(durable.Fault{Op: durable.OpCreate, Path: cfg.CompactDir, N: sealAttempts, Err: syscall.ENOSPC})
	before := len(retained(s))
	if before == 0 {
		t.Fatal("nothing retained; the test needs sealable events")
	}
	if _, err := s.CompactNow(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("compaction under a persistent ENOSPC: %v", err)
	}
	if got := len(retained(s)); got != before {
		t.Fatalf("failed compaction changed the retained log: %d -> %d", before, got)
	}

	// A transient fault (two failures, then clear) is absorbed by the
	// retry loop; the pass succeeds and the retries are counted.
	retries := s.StatsNow().CompactionRetries
	mem.Fail(durable.Fault{Op: durable.OpCreate, Path: cfg.CompactDir, N: 2, Err: syscall.ENOSPC})
	sealed, err := s.CompactNow()
	if err != nil || sealed == 0 {
		t.Fatalf("compaction did not survive a transient fault: %d (%v)", sealed, err)
	}
	if got := s.StatsNow().CompactionRetries - retries; got != 2 {
		t.Fatalf("counted %d retries, want 2", got)
	}
}

// TestKillMidCompactionRecovery is the one crash of a real process, on
// the host file system: the test binary re-executes itself as a daemon
// that journals under the always policy and compacts every few
// milliseconds; the parent streams batches into it, waits until the
// first killAfter of them are applied, sends one more without waiting
// and SIGKILLs it. The restart must hold a prefix of the stream that
// includes every line applied before the kill.
func TestKillMidCompactionRecovery(t *testing.T) {
	const batch, killAfter = 512, 12
	if dir := os.Getenv("TITAND_CRASH_HELPER_DIR"); dir != "" {
		cfg := crashConfig(dir, FsyncAlways)
		cfg.CompactAge, cfg.CompactInterval = time.Hour, 5*time.Millisecond
		s := NewServer(cfg)
		if _, err := s.WarmStart(dir); err != nil {
			os.Exit(3)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			os.Exit(4)
		}
		fmt.Println(ln.Addr())
		_ = http.Serve(ln, s.Handler()) // until the kill
		os.Exit(5)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillMidCompactionRecovery$")
	cmd.Env = append(os.Environ(), "TITAND_CRASH_HELPER_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // a failed test leaves no daemon behind
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("helper daemon printed no address: %v", err)
	}
	base := "http://" + strings.TrimSpace(addr)

	events := simEvents()[:(killAfter+1)*batch]
	batches := chunkLog(encodeLog(t, events), batch)
	post := func(body []byte) {
		resp, err := http.Post(base+"/ingest", "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /ingest: %s", resp.Status)
		}
	}
	for _, b := range batches[:killAfter] {
		post(b)
	}
	applied := uint64(killAfter * batch)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var st Stats
		getJSON(t, base+"/stats", &st)
		if st.EventsApplied == applied {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("helper applied %d of %d events", st.EventsApplied, applied)
		}
	}
	post(batches[killAfter]) // in flight, or applied: the kill decides
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("helper daemon survived its SIGKILL")
	}

	b := testServer(t, crashConfig(dir, FsyncAlways))
	warm, err := b.WarmStart(dir)
	if err != nil {
		t.Fatalf("restart after SIGKILL: %v", err)
	}
	if warm.Quarantined != 0 || warm.EventsLost != 0 {
		t.Fatalf("a kill must not lose sealed events: %+v", warm)
	}
	got := b.StatsNow().EventsApplied
	t.Logf("restart after SIGKILL: %+v; holds %d events, %d applied before the kill, %d sent", warm, got, applied, len(events))
	if got < applied || got > uint64(len(events)) {
		t.Fatalf("restart holds %d events, want the %d applied before the kill and at most the %d sent", got, applied, len(events))
	}
	c := testServer(t, DefaultConfig())
	ingestLog(t, c, encodeLog(t, events[:got]))
	mustEqualState(t, b, c, false)
}
