package serve

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"titanre/internal/bincode"
	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/durable"
	"titanre/internal/predict"
	"titanre/internal/race"
	"titanre/internal/store"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Restart-checkpoint tests: a daemon restored from the checkpoint a clean
// shutdown left — or, when that checkpoint is unusable, rebuilt by full
// replay — serves what a daemon that never stopped serves, and the
// checkpoint's bytes are a function of the state alone.

// cpFixture is one month of history cut in three, two models trained on
// all of it (the second with a longer lead window), and the state
// directory daemon A left on a durable.Mem: it took the front third with
// a compaction mid-life and drained, sealing the rest and writing the
// checkpoint.
type cpFixture struct {
	events            []console.Event
	front, mid        []console.Event
	model, otherModel *predict.Model
	mem               *durable.Mem
}

// newCPFixture builds the fixture.
func newCPFixture(t *testing.T) *cpFixture {
	t.Helper()
	events := simEvents()
	third := len(events) / 3
	fx := &cpFixture{events: events, front: events[:third], mid: events[third : 2*third], mem: durable.NewMem()}
	pcfg := predict.DefaultConfig()
	pcfg.MinSupport = 5
	pcfg.MinConfidence = 0.01
	fx.model = predict.Train(events, pcfg)
	pcfg.LeadWindow *= 3
	fx.otherModel = predict.Train(events, pcfg)
	if len(fx.model.Rules()) == 0 || bytes.Equal(fx.model.AppendFingerprint(nil), fx.otherModel.AppendFingerprint(nil)) {
		t.Fatalf("models with %d and %d rules; the rows need two different non-empty ones", len(fx.model.Rules()), len(fx.otherModel.Rules()))
	}
	a := NewServer(cpConfig(fx.mem, fx.model))
	if _, err := a.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	half := len(fx.front) / 2
	ingestLog(t, a, encodeLog(t, fx.front[:half]))
	if sealed, err := a.CompactNow(); err != nil || sealed == 0 {
		t.Fatalf("daemon A compacted %d events (%v), want >0", sealed, err)
	}
	ingestLog(t, a, encodeLog(t, fx.front[half:]))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return fx
}

// cpConfig is titand's -warm-dir -journal wiring over stateDir on fsys.
func cpConfig(fsys durable.FS, model *predict.Model) Config {
	cfg := memConfig(fsys, FsyncOff)
	cfg.SnapshotDir = stateDir
	cfg.Model = model
	return cfg
}

// cpPath is the checkpoint's path in stateDir.
var cpPath = filepath.Join(stateDir, dataset.SegmentsDir, checkpointFile)

// segmentFiles lists the sealed segment files on mem in seal order.
func segmentFiles(t *testing.T, mem *durable.Mem) []string {
	t.Helper()
	var names []string
	for _, p := range mem.Paths() {
		if filepath.Dir(p) == filepath.Join(stateDir, dataset.SegmentsDir) && filepath.Ext(p) == ".seg" {
			names = append(names, p)
		}
	}
	if len(names) < 2 {
		t.Fatalf("segments %v; the rows need at least two", names)
	}
	return names
}

// flipByte rewrites path on mem with the byte at its middle flipped.
func flipByte(t *testing.T, mem *durable.Mem, path string, bit byte) {
	t.Helper()
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= bit
	writeMem(t, mem, path, data)
}

// writeMem replaces path on mem with data.
func writeMem(t *testing.T, mem *durable.Mem, path string, data []byte) {
	t.Helper()
	f, err := mem.Create(path)
	if err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// unreachableNodes are node states the apply step cannot leave, each
// with the reason decodeCheckpoint refuses it for; edit makes one out of
// a node that has a card, given the rate window in seconds.
var unreachableNodes = []struct {
	name, reason string
	edit         func(ns *nodeState, span int64)
}{
	{"a total that is not its codes' sum", "more than its codes count", func(ns *nodeState, _ int64) { ns.total++ }},
	{"a code listed twice", "listed twice", func(ns *nodeState, _ int64) {
		ns.byCode, ns.total = append(ns.byCode, ns.byCode[0]), ns.total+ns.byCode[0].n
	}},
	{"a code with no event", "no event", func(ns *nodeState, _ int64) { ns.byCode = append(ns.byCode, codeCount{code: 99}) }},
	{"a serial listed twice", "zero or listed twice", func(ns *nodeState, _ int64) { ns.cards = append(ns.cards, ns.cards[0]) }},
	{"a zero serial", "zero or listed twice", func(ns *nodeState, _ int64) { ns.cards[0].serial = 0 }},
	{"more window events than events", "in its window", func(ns *nodeState, _ int64) {
		for len(ns.window) <= ns.total {
			ns.window = append(ns.window, ns.window[0])
		}
	}},
	{"an empty window", "in its window", func(ns *nodeState, _ int64) { ns.window = nil }},
	{"a window that starts outside the rate window", "outside the rate window", func(ns *nodeState, span int64) {
		ns.window[0].at = ns.lastSeen - span
	}},
	{"a card whose retirement machine is off", "retirement disabled", func(ns *nodeState, _ int64) {
		ns.cards[0].ecc = &cardECC{dbeEvents: 1}
	}},
}

// forgeCheckpoint is data, a checkpoint written under cfg, with edit made
// to its first node that has a card, re-encoded under a fresh digest.
func forgeCheckpoint(tb testing.TB, data []byte, cfg Config, edit func(*nodeState, int64)) []byte {
	tb.Helper()
	cp, err := decodeCheckpoint(data, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	i := slices.IndexFunc(cp.nodes, func(ns nodeState) bool { return len(ns.cards) > 0 })
	if i < 0 {
		tb.Fatal("no node in the checkpoint has a card")
	}
	edit(&cp.nodes[i], windowSeconds(cfg.RateWindow))
	return cp.append(nil)
}

// TestCheckpointRejectsUnreachableNodes: the restore refuses, with its
// reason, every node state in unreachableNodes, though its digest is good.
func TestCheckpointRejectsUnreachableNodes(t *testing.T) {
	data, cfg := smallCheckpoint(t)
	if _, err := decodeCheckpoint(data, cfg); err != nil {
		t.Fatal(err)
	}
	for _, row := range unreachableNodes {
		_, err := decodeCheckpoint(forgeCheckpoint(t, data, cfg, row.edit), cfg)
		if !errors.Is(err, bincode.ErrCorrupt) || !strings.Contains(err.Error(), row.reason) {
			t.Errorf("%s: got %v, want ErrCorrupt (%s)", row.name, err, row.reason)
		}
	}
}

// tempFiles lists the durable.WriteFile temp files on mem.
func tempFiles(mem *durable.Mem) []string {
	var temps []string
	for _, p := range mem.Paths() {
		if strings.HasPrefix(filepath.Base(p), durable.TempPrefix) {
			temps = append(temps, p)
		}
	}
	return temps
}

// advance is a daemon that warm-starts from mem, takes events, compacts
// and is then killed: the image it returns holds what the files held,
// and the daemon is abandoned (its clean-up drain writes to mem, not to
// the image).
func advance(t *testing.T, mem *durable.Mem, model *predict.Model, events []console.Event) *durable.Mem {
	t.Helper()
	s := testServer(t, cpConfig(mem, model))
	if _, err := s.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	ingestLog(t, s, encodeLog(t, events))
	if _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	return killImage(mem)
}

// TestCheckpointRestart: each row leaves a state directory, daemon B
// warm-starts from it, and B — right away, and again after taking the
// rest of the month — must serve /alerts, /warnings, /nodes/…, /rollup,
// /top and /query bytes and a /stats (wall-clock and per-process figures
// aside) identical to a daemon that took the same events in one life. Rows without a usable
// checkpoint replay in full and say why.
func TestCheckpointRestart(t *testing.T) {
	fx := newCPFixture(t)
	first, err := store.ReadSegmentFile(fx.mem, segmentFiles(t, fx.mem)[0])
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		// state prepares B's file system from a copy of A's.
		state func(t *testing.T, mem *durable.Mem) *durable.Mem
		// cfg is B's config over fsys (and the reference's, less the
		// directories).
		cfg func(fsys durable.FS) Config
		// After the warm start B's state holds the stream's events
		// [lost, through) — through is the front third unless set;
		// checkpointed of them came from the checkpoint, and unused, when
		// not "", is the reason none did.
		through, lost, checkpointed int
		unused                      string
	}{{
		name:         "clean",
		checkpointed: len(fx.front),
	}, {
		name: "deleted",
		state: func(t *testing.T, mem *durable.Mem) *durable.Mem {
			if err := mem.Remove(cpPath); err != nil {
				t.Fatal(err)
			}
			return mem
		},
		unused: "missing",
	}, {
		// A restart that ingested, sealed and then died: the checkpoint
		// covers A's segments; B replays the later ones and the journal.
		name: "stale-then-crash",
		state: func(t *testing.T, mem *durable.Mem) *durable.Mem {
			return advance(t, mem, fx.model, fx.mid)
		},
		through:      len(fx.front) + len(fx.mid),
		checkpointed: len(fx.front),
	}, {
		name: "flipped-byte",
		state: func(t *testing.T, mem *durable.Mem) *durable.Mem {
			flipByte(t, mem, cpPath, 0x01)
			return mem
		},
		unused: "digest mismatch",
	}, {
		name: "window-changed",
		cfg: func(fsys durable.FS) Config {
			cfg := cpConfig(fsys, fx.model)
			cfg.RateWindow = 6 * time.Hour
			return cfg
		},
		unused: "fingerprint differs",
	}, {
		name:   "model-changed",
		cfg:    func(fsys durable.FS) Config { return cpConfig(fsys, fx.otherModel) },
		unused: "fingerprint differs",
	}, {
		// A node state the apply step cannot leave, under a good digest.
		name: "unreachable-node",
		state: func(t *testing.T, mem *durable.Mem) *durable.Mem {
			data, err := mem.ReadFile(cpPath)
			if err != nil {
				t.Fatal(err)
			}
			writeMem(t, mem, cpPath, forgeCheckpoint(t, data, cpConfig(mem, fx.model), unreachableNodes[0].edit))
			return mem
		},
		unused: unreachableNodes[0].reason,
	}, {
		// The prefix's first segment rots: quarantined at open, so the
		// checkpoint that covers it is not used and B holds the rest.
		name: "quarantined",
		state: func(t *testing.T, mem *durable.Mem) *durable.Mem {
			flipByte(t, mem, segmentFiles(t, mem)[0], 0x20)
			return mem
		},
		lost:   first.Len(),
		unused: "quarantined",
	}, {
		// A restart that ingested and was killed between its checkpoint's
		// temp write and rename: the old checkpoint still covers A's
		// prefix, B replays what the restart sealed after it.
		name: "kill-before-rename",
		state: func(t *testing.T, mem *durable.Mem) *durable.Mem {
			s := NewServer(cpConfig(mem, fx.model))
			if _, err := s.WarmStart(stateDir); err != nil {
				t.Fatal(err)
			}
			ingestLog(t, s, encodeLog(t, fx.mid))
			mem.Record(true)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			cuts := mem.Cuts()
			mem.Record(false)
			i := slices.IndexFunc(cuts, func(c durable.Cut) bool {
				return c.Op == durable.OpRename && strings.HasSuffix(c.Path, " -> "+cpPath)
			})
			if i < 0 {
				t.Fatal("the drain renamed no checkpoint into place")
			}
			if temps := tempFiles(cuts[i].Kill); len(temps) != 1 {
				t.Fatalf("the kill left temp files %v, want one", temps)
			}
			return cuts[i].Kill
		},
		through:      len(fx.front) + len(fx.mid),
		checkpointed: len(fx.front),
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mem := killImage(fx.mem)
			if row.state != nil {
				mem = row.state(t, mem)
			}
			cfgOf := func(fsys durable.FS) Config { return cpConfig(fsys, fx.model) }
			if row.cfg != nil {
				cfgOf = row.cfg
			}
			through := cmp.Or(row.through, len(fx.front))
			covered, rest := fx.events[row.lost:through], fx.events[through:]
			b := testServer(t, cfgOf(mem))
			ws, err := b.WarmStart(stateDir)
			if err != nil {
				t.Fatalf("warm start: %v", err)
			}
			if ws.Replayed+ws.JournalReplayed != len(covered) || ws.Checkpointed != row.checkpointed || !strings.Contains(ws.CheckpointUnused, row.unused) || (row.unused == "") != (ws.CheckpointUnused == "") {
				t.Fatalf("warm start %+v; want %d events covered, %d checkpointed, unused %q", ws, len(covered), row.checkpointed, row.unused)
			}
			st := b.StatsNow()
			if st.WarmEventsCheckpointed != uint64(row.checkpointed) || st.WarmEventsReplayed != uint64(len(covered)-row.checkpointed) || st.WarmCheckpointUnused != ws.CheckpointUnused {
				t.Fatalf("/stats books warm start %d checkpointed, %d replayed, unused %q; want %d, %d, %q",
					st.WarmEventsCheckpointed, st.WarmEventsReplayed, st.WarmCheckpointUnused, row.checkpointed, len(covered)-row.checkpointed, ws.CheckpointUnused)
			}
			if temps := tempFiles(mem); len(temps) > 0 {
				t.Fatalf("warm start left temp files %v", temps)
			}
			refCfg := cfgOf(nil)
			refCfg.CompactDir, refCfg.JournalDir, refCfg.SnapshotDir = "", "", ""
			ref := testServer(t, refCfg)
			ingestLog(t, ref, encodeLog(t, covered))
			mustServeAlike(t, b, ref, covered)
			for _, s := range []*Server{b, ref} {
				ingestLog(t, s, encodeLog(t, rest))
			}
			mustServeAlike(t, b, ref, slices.Concat(covered, rest))
		})
	}
}

// mustServeAlike holds got to want's bytes on the state documents, and on
// /stats less what a restart resets or the clock decides.
func mustServeAlike(t *testing.T, got, want *Server, history []console.Event) {
	t.Helper()
	paths := []string{
		"/alerts", "/warnings",
		"/rollup?by=code,cabinet&bucket=24h",
		"/top?by=node&k=10", "/top?by=serial&k=10",
		"/query?" + url.Values{"q": {"* | by cage | bucket 7d"}}.Encode(),
	}
	// One node per code: the last to log it (a DBE's holds retirement state).
	lastNode := map[xid.Code]topology.NodeID{}
	for _, ev := range history {
		lastNode[ev.Code] = ev.Node
	}
	for _, code := range bincode.SortedKeys(lastNode) {
		paths = append(paths, "/nodes/"+topology.CNameOf(lastNode[code]))
	}
	for _, path := range paths {
		g, w := serveGet(t, got, path), serveGet(t, want, path)
		if len(g) < 8 {
			t.Fatalf("%s is %q; the comparison is vacuous", path, g)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s diverges from the daemon that never stopped (%d vs %d bytes)", path, len(g), len(w))
		}
	}
	gs, ws := got.StatsNow(), want.StatsNow()
	if gs.SealedEvents+gs.RetainedEvents != int(gs.EventsApplied) {
		t.Fatalf("restarted daemon holds %d sealed + %d retained events, applied %d", gs.SealedEvents, gs.RetainedEvents, gs.EventsApplied)
	}
	if g, w := stateStats(t, gs), stateStats(t, ws); g != w {
		t.Fatalf("/stats diverges:\nrestarted: %s\nreference: %s", g, w)
	}
}

// stateStats renders st without the figures a restart resets (ingest
// counters, stopwatches, compaction, journal and warm-start books), reads
// off the clock or the heap, a degraded start carries, or that follow
// where the history sits (a sealed row is read through its segment's node
// index, a retained one is not).
func stateStats(t *testing.T, st Stats) string {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"uptime_seconds", "batches_accepted", "batches_shed", "batches_rejected", "lines_accepted", "lines_shed",
		"events_decoded", "lines_chatter", "lines_malformed", "lines_oversized", "decode_fast_hits", "decode_fast_fallbacks",
		"ingest_stage_seconds", "retained_events", "sealed_segments", "sealed_events", "sealed_segment_bytes",
		"sealed_mapped_bytes", "node_index_bytes", "query_rows_visited", "compactions", "compaction_failures", "compaction_retries", "events_sealed",
		"last_compaction_unix", "heap_inuse_bytes", "degraded", "quarantined_segments", "quarantined_bytes",
		"events_lost_to_quarantine", "orphans_removed", "sealed_seq", "query_fold_seconds", "query_render_seconds",
		"journal", "warm_events_checkpointed", "warm_events_replayed", "warm_checkpoint_unused",
		"warm_open_seconds", "warm_checkpoint_seconds", "warm_segment_replay_seconds", "warm_journal_replay_seconds",
	} {
		delete(doc, k)
	}
	out, err := json.Marshal(doc) // map keys sorted
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCheckpointBytesIdentical: the checkpoint is a function of the state.
// A daemon restored from it and drained with no ingest writes the same
// bytes back; a daemon that rebuilt the state by full replay writes the
// bytes the live daemon wrote.
func TestCheckpointBytesIdentical(t *testing.T) {
	fx := newCPFixture(t)
	want, err := fx.mem.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, replay := range []bool{false, true} {
		mem := killImage(fx.mem)
		if replay {
			if err := mem.Remove(cpPath); err != nil {
				t.Fatal(err)
			}
		}
		s := NewServer(cpConfig(mem, fx.model))
		ws, err := s.WarmStart(stateDir)
		if err != nil {
			t.Fatal(err)
		}
		if (ws.Checkpointed == 0) != replay {
			t.Fatalf("replay=%v: warm start %+v", replay, ws)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		got, err := mem.ReadFile(cpPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replay=%v: checkpoint of %d bytes differs from the live daemon's %d at byte %d", replay, len(got), len(want), firstDiff(got, want))
		}
	}
}

// TestCheckpointNeedsSealedHistory: a daemon whose applied events are not
// all sealed at shutdown — no retained log to seal — writes no
// checkpoint, and the one it found stays.
func TestCheckpointNeedsSealedHistory(t *testing.T) {
	fx := newCPFixture(t)
	mem := killImage(fx.mem)
	before, err := mem.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpConfig(mem, fx.model)
	cfg.RetainEvents, cfg.SnapshotDir = false, ""
	s := NewServer(cfg)
	if _, err := s.WarmStart(stateDir); err != nil {
		t.Fatal(err)
	}
	ingestLog(t, s, encodeLog(t, fx.mid[:100]))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if after, err := mem.ReadFile(cpPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("checkpoint changed (%v) though the last 100 events were never sealed", err)
	}
}

// FuzzCheckpointDecode: arbitrary bytes never panic the decoder, and what
// it accepts re-encodes to exactly those bytes. Each input is tried as
// is and re-sealed under a fresh SHA-256 trailer, so mutations reach the
// decoder proper rather than stopping at the digest.
func FuzzCheckpointDecode(f *testing.F) {
	seed, fcfg := smallCheckpoint(f)
	empty := checkpoint{fingerprint: checkpointFingerprint(fcfg), derived: newDerived(fcfg)}
	f.Add(seed)
	f.Add(empty.append(nil))
	f.Add([]byte("TITANCKP"))
	for _, row := range unreachableNodes {
		f.Add(forgeCheckpoint(f, seed, fcfg, row.edit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			cp, err := decodeCheckpoint(data, fcfg)
			if err != nil {
				return
			}
			if got := cp.append(nil); !bytes.Equal(got, data) {
				t.Fatalf("accepted %d bytes re-encode to %d, first difference at %d", len(data), len(got), firstDiff(got, data))
			}
		}
		check(data)
		if len(data) >= sha256.Size {
			body := data[: len(data)-sha256.Size : len(data)-sha256.Size]
			sum := sha256.Sum256(body)
			check(append(body, sum[:]...))
		}
	})
}

// smallCheckpoint is the checkpoint a daemon with a model drains to
// after 1,500 events, with the config it was written under.
func smallCheckpoint(tb testing.TB) ([]byte, Config) {
	tb.Helper()
	events := simEvents()[:1500]
	pcfg := predict.DefaultConfig()
	pcfg.MinSupport = 2
	pcfg.MinConfidence = 0.01
	cfg := DefaultConfig()
	cfg.Model = predict.Train(events, pcfg)
	cfg.CompactDir = filepath.Join(tb.TempDir(), dataset.SegmentsDir)
	s := NewServer(cfg)
	ingestLog(tb, s, encodeLog(tb, events))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.CompactDir, checkpointFile))
	if err != nil {
		tb.Fatal(err)
	}
	return data, s.cfg
}

// BenchmarkWarmStart times one warm start of the bench-shaped history
// (sim.BenchHistory, 336,000 events in six segments) and of four copies
// of it laid end to end: replay feeds every sealed event back through the
// apply step, checkpoint restores the state a drained daemon left and
// replays nothing, and fresh does what checkpoint does in a child process
// that has done nothing else — a re-exec of the test binary an iteration
// (TestWarmStartFresh), so ns/op counts the exec too. A warmed process
// hides what a restart pays: its heap is grown, its pages faulted in and
// its collector idle where a new one marks while the state is restored.
// Each row reports the events replayed per restart and the time of each
// phase (WarmStats) per restart. Run it as
//
//	go test ./internal/serve -run '^$' -bench WarmStart -cpu 1 -count 6
func BenchmarkWarmStart(b *testing.B) {
	states := b.TempDir()
	for _, copies := range []int{1, 4} {
		dir := filepath.Join(states, fmt.Sprint(copies))
		for _, mode := range []string{"replay", "checkpoint", "fresh"} {
			if mode == "fresh" && copies > 1 {
				continue // the restart the benchmark's backfill workload makes
			}
			b.Run(fmt.Sprintf("%s/history=%dx", mode, copies), func(b *testing.B) {
				if _, err := os.Stat(dir); err != nil {
					warmBenchState(b, dir, copies)
				}
				state := copyDir(b, dir)
				if mode == "replay" {
					if err := os.Remove(filepath.Join(state, dataset.SegmentsDir, checkpointFile)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				var sum WarmStats
				for i := 0; i < b.N; i++ {
					var ws WarmStats
					if mode == "fresh" {
						ws = warmStartFresh(b, state)
					} else {
						// Without CompactDir the drain below seals nothing and
						// writes no checkpoint: each iteration finds the same
						// directory.
						s := NewServer(DefaultConfig())
						var err error
						if ws, err = s.WarmStart(state); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						shutdownBench(b, s)
						s.SealedStore().Close()
						b.StartTimer()
					}
					sum.Replayed += ws.Replayed - ws.Checkpointed
					sum.Open += ws.Open
					sum.CheckpointRestore += ws.CheckpointRestore
					sum.SegmentReplay += ws.SegmentReplay
					sum.JournalReplay += ws.JournalReplay
				}
				n := float64(b.N)
				b.ReportMetric(float64(sum.Replayed)/n, "replayed/op")
				for unit, d := range map[string]time.Duration{"open-ms/op": sum.Open, "checkpoint-ms/op": sum.CheckpointRestore, "replay-ms/op": sum.SegmentReplay, "journal-ms/op": sum.JournalReplay} {
					b.ReportMetric(d.Seconds()*1e3/n, unit)
				}
			})
		}
	}
}

// warmStartEnv names the state directory TestWarmStartFresh warm-starts
// from in a child process.
const warmStartEnv = "TITAND_WARM_START_DIR"

// TestWarmStartFresh is the child process of BenchmarkWarmStart's fresh
// row, and is skipped anywhere else: one warm start of the directory
// warmStartEnv names, its WarmStats printed as one line of JSON.
func TestWarmStartFresh(t *testing.T) {
	dir := os.Getenv(warmStartEnv)
	if dir == "" {
		t.Skip("the child process of BenchmarkWarmStart's fresh row")
	}
	ws, err := NewServer(DefaultConfig()).WarmStart(dir)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// warmStartFresh re-executes the test binary as TestWarmStartFresh over
// dir and returns the WarmStats the child printed.
func warmStartFresh(tb testing.TB, dir string) WarmStats {
	tb.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWarmStartFresh$")
	cmd.Env = append(os.Environ(), warmStartEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		tb.Fatalf("child warm start: %v\n%s", err, out)
	}
	var ws WarmStats
	line, _, _ := bytes.Cut(out, []byte("\n"))
	if err := json.Unmarshal(line, &ws); err != nil {
		tb.Fatalf("child warm start printed %q: %v", out, err)
	}
	return ws
}

// TestWarmStartAllocBudget holds a warm start from the bench-shaped
// checkpoint (one history, six segments, 16,999 nodes) to what it
// measured when the node table went flat — 5.3 MB in 570 allocations,
// where the pointer table read 10.5 MB in 3,769 — with a quarter to
// spare. The node table, the restore's chunks and the alert engine's
// job sets are a handful of allocations, whatever the node count.
func TestWarmStartAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime's own bookkeeping moves allocation figures")
	}
	dir := t.TempDir()
	warmBenchState(t, dir, 1)
	const maxBytes, maxAllocs = 5_300_000 * 5 / 4, 570 * 5 / 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewServer(DefaultConfig())
	ws, err := s.WarmStart(dir)
	runtime.ReadMemStats(&after)
	if err != nil || ws.Checkpointed == 0 {
		t.Fatalf("warm start %+v, %v; want a restore from the checkpoint", ws, err)
	}
	defer s.SealedStore().Close()
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("warm start from the checkpoint: %d bytes in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("warm start allocated %d bytes in %d allocations; the budget is %d bytes, %d allocations", bytes, allocs, maxBytes, maxAllocs)
	}
}

// warmBenchState seals copies back-to-back copies of the bench history
// into dir and leaves beside the segments the checkpoint a drained
// daemon writes.
func warmBenchState(tb testing.TB, dir string, copies int) {
	tb.Helper()
	history := readBenchHistory()
	span := history[len(history)-1].Time.Sub(history[0].Time) + time.Hour
	events := make([]console.Event, 0, copies*len(history))
	for k := 0; k < copies; k++ {
		for _, ev := range history {
			ev.Time = ev.Time.Add(time.Duration(k) * span)
			events = append(events, ev)
		}
	}
	if err := dataset.WriteSegments(dir, events, 0); err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CompactDir = filepath.Join(dir, dataset.SegmentsDir)
	s := NewServer(cfg)
	if _, err := s.WarmStart(dir); err != nil {
		tb.Fatal(err)
	}
	shutdownBench(tb, s)
	s.SealedStore().Close()
	if _, err := os.Stat(filepath.Join(cfg.CompactDir, checkpointFile)); err != nil {
		tb.Fatalf("no checkpoint after the drain: %v", err)
	}
}

// copyDir copies a benchmark's state directory, file by file, to a fresh
// one it returns.
func copyDir(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		target := filepath.Join(dst, strings.TrimPrefix(path, src))
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
		tb.Fatal(err)
	}
	return dst
}
