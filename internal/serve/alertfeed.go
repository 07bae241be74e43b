package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"titanre/internal/alert"
	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/xid"
)

// The cluster alert feed — how a sharded fleet reconstructs the exact
// alert stream a single daemon would have raised.
//
// Alerts are the one read surface the store Merge kernels cannot cover:
// the detectors are stateful and order-sensitive, so per-replica alert
// lists cannot be merged after the fact (a replica holding only its
// shard of the node space fires NewCode for codes another replica saw
// first, never fires fleet-wide bursts, and so on). Instead each
// replica collects the minimal event evidence the detectors need,
// tagged with the router-assigned global sequence number of the line it
// arrived on, and the router replays the union — sorted by sequence —
// through a fresh alert.Engine with the identical config.
//
// The collector keeps, per detector:
//
//   - NewCode: the minimum-sequence event of every code. The engine
//     fires on the first occurrence of a code and never looks again, so
//     the global first (the min over replica minima — each replica's
//     min is exact for the lines it owns, and the router's line
//     partition is total) reproduces the alert, and every later event
//     of the code is a no-op.
//   - CardDBEThreshold: every DoubleBitError event. The counter per
//     serial needs all of them; DBEs are rare (the paper's pull
//     decision exists because they are).
//   - Burst: every event of a burstable code while burst detection is
//     configured. The sliding window needs the full arrival sequence
//     of exactly these codes; events of other codes never touch it.
//   - SuspectNode: the minimum-sequence event of every (code, job)
//     app-error incident. The engine dedups incidents on first report
//     (Observation 7: the whole job logs, only the faulting node's
//     first report counts), so later reports are no-ops by
//     construction and only the global first matters.
//
// Replaying any superset of this evidence in sequence order is
// byte-identical to replaying the full stream: every omitted event is a
// no-op for every detector (proved per-detector above), and every
// retained event is processed at its original stream position relative
// to the events that do matter. That superset-closure is what makes
// the union of per-replica collections — which overlap on nothing but
// may each over-approximate — safe to replay directly, and it is the
// property TestClusterAlertsMatchSingle exercises end to end.

// Ingest headers the router (or any seq-assigning client) attaches.
const (
	// SourceHeader carries the feed identity for per-source QoS and
	// shed accounting.
	SourceHeader = "X-Titan-Source"
	// SeqBaseHeader is the global sequence number of line 0 of the
	// original (pre-split) batch, assigned densely by the router.
	SeqBaseHeader = "X-Titan-Seq-Base"
	// SeqMaskHeader is the base64 little-endian bitmask of which
	// original batch lines this sub-batch carries; the j-th line of the
	// body is original line position(j), with global sequence
	// base + position(j). Its popcount must equal the body's line count.
	SeqMaskHeader = "X-Titan-Seq-Mask"
	// DuplicateHeader marks the 202 for a sequenced sub-batch the replica
	// had already taken: acknowledged, not applied again.
	DuplicateHeader = "X-Titan-Duplicate"
)

// alertfeedFile is the snapshot the feed persists under SnapshotDir on
// shutdown, next to the event snapshot, with admission's window of
// applied sequence bases (written whether or not the feed is on).
const alertfeedFile = "alertfeed.json"

// FeedRecord is one collected evidence event: its global sequence and
// its canonical console rendering (AppendRaw round-trips exactly, so
// the router re-parses Raw back into the identical event).
type FeedRecord struct {
	Seq uint64 `json:"seq"`
	Raw string `json:"raw"`
}

// FeedDoc is the GET /alertfeed document.
type FeedDoc struct {
	// Complete is false when the feed cannot vouch for global-replay
	// exactness: untagged events were applied (ingest without sequence
	// headers), or a restart could not reconcile the collector snapshot
	// with the replayed history.
	Complete       bool         `json:"complete"`
	CoveredEvents  uint64       `json:"covered_events"`
	UntaggedEvents uint64       `json:"untagged_events"`
	Config         alert.Config `json:"config"`
	Records        []FeedRecord `json:"records"`
}

type feedRec struct {
	seq uint64
	raw []byte
}

type feedIncidentKey struct {
	code xid.Code
	job  console.JobID
}

// alertFeed is the per-replica evidence collector.
type alertFeed struct {
	mu        sync.Mutex
	burstOn   bool
	burstAll  bool
	burstable map[xid.Code]bool

	firstByCode     map[xid.Code]feedRec
	firstByIncident map[feedIncidentKey]feedRec
	extras          []feedRec

	covered    uint64 // tagged events seen (recorded or ruled no-op)
	untagged   uint64 // events applied without a sequence tag
	incomplete bool   // restart could not reconcile the snapshot
}

func newAlertFeed(cfg alert.Config) *alertFeed {
	f := &alertFeed{
		burstOn:         cfg.BurstCount > 0 && cfg.BurstWindow > 0,
		firstByCode:     make(map[xid.Code]feedRec),
		firstByIncident: make(map[feedIncidentKey]feedRec),
	}
	if cfg.BurstCodes == nil {
		f.burstAll = true
	} else {
		f.burstable = make(map[xid.Code]bool, len(cfg.BurstCodes))
		for _, c := range cfg.BurstCodes {
			f.burstable[c] = true
		}
	}
	return f
}

// record books one applied event carrying its global sequence.
func (f *alertFeed) record(ev console.Event, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.covered++
	var raw []byte
	rawOf := func() []byte {
		if raw == nil {
			raw = ev.AppendRaw(nil)
		}
		return raw
	}
	if cur, ok := f.firstByCode[ev.Code]; !ok || seq < cur.seq {
		f.firstByCode[ev.Code] = feedRec{seq: seq, raw: rawOf()}
	}
	if ev.Code == xid.DoubleBitError || (f.burstOn && (f.burstAll || f.burstable[ev.Code])) {
		f.extras = append(f.extras, feedRec{seq: seq, raw: rawOf()})
	}
	if ev.Job != 0 {
		if info, ok := xid.Lookup(ev.Code); ok && info.AppRelated {
			k := feedIncidentKey{code: ev.Code, job: ev.Job}
			if cur, ok := f.firstByIncident[k]; !ok || seq < cur.seq {
				f.firstByIncident[k] = feedRec{seq: seq, raw: rawOf()}
			}
		}
	}
}

// markUntagged books n applied events that carried no sequence tag —
// the feed can no longer claim global coverage.
func (f *alertFeed) markUntagged(n int) {
	f.mu.Lock()
	f.untagged += uint64(n)
	f.mu.Unlock()
}

// records renders the deduplicated evidence set, sorted by sequence.
// Sequences are unique per line fleet-wide, so seq is the dedup key.
func (f *alertFeed) records() []FeedRecord {
	bysSeq := make(map[uint64][]byte)
	for _, r := range f.extras {
		bysSeq[r.seq] = r.raw
	}
	for _, r := range f.firstByCode {
		bysSeq[r.seq] = r.raw
	}
	for _, r := range f.firstByIncident {
		bysSeq[r.seq] = r.raw
	}
	out := make([]FeedRecord, 0, len(bysSeq))
	for seq, raw := range bysSeq {
		out = append(out, FeedRecord{Seq: seq, Raw: string(raw)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// complete reports whether the feed can still vouch for global-replay
// exactness.
func (f *alertFeed) complete() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.incomplete && f.untagged == 0
}

func (f *alertFeed) doc(cfg alert.Config) FeedDoc {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FeedDoc{
		Complete:       !f.incomplete && f.untagged == 0,
		CoveredEvents:  f.covered,
		UntaggedEvents: f.untagged,
		Config:         cfg,
		Records:        f.records(),
	}
}

func (s *Server) handleAlertFeed(w http.ResponseWriter, r *http.Request) {
	if s.feed == nil {
		http.Error(w, "alert feed disabled", http.StatusNotFound)
		return
	}
	s.writeJSON(w, s.feed.doc(s.cfg.Alerts))
}

// feedSnapshot is the on-disk shape: the evidence plus the covered
// count, which a warm start reconciles against what it replayed, and
// admission's window of applied sequence bases, so a replay that arrives
// after a graceful restart is still known for one.
type feedSnapshot struct {
	Covered  uint64       `json:"covered"`
	Records  []FeedRecord `json:"records"`
	SeqSeen  []uint64     `json:"seq_seen,omitempty"`
	SeqFloor uint64       `json:"seq_floor,omitempty"`
}

// writeFeedSnapshot persists the collector, when it is on, and the
// window of applied sequence bases durably (temp, fsync, rename, directory
// fsync). The drain already applied everything admitted, so the covered
// count equals the replayable history; admission is closed, so nothing
// moves the window.
func (s *Server) writeFeedSnapshot(dir string) error {
	s.admitMu.Lock()
	snap := feedSnapshot{SeqSeen: s.seqSeen, SeqFloor: s.seqFloor}
	s.admitMu.Unlock()
	if s.feed != nil {
		s.feed.mu.Lock()
		snap.Covered, snap.Records = s.feed.covered, s.feed.records()
		s.feed.mu.Unlock()
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err == nil {
		err = durable.WriteBytes(s.cfg.FS, dir, alertfeedFile, append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("serve: alert feed snapshot: %w", err)
	}
	return nil
}

// loadFeedSnapshot restores the window of applied sequence bases and,
// when the feed is on, the collector, after a warm start whose state
// covers `restored` events (checkpointed and replayed). A missing
// snapshot with a non-empty history, a covered count that does not equal
// it (the crash window), or an unparseable record all mark the feed
// incomplete — the router degrades the merged alert stream rather than
// serving a wrong one. Re-recording the stored evidence preserves
// exactness across restarts: each stored record was the minimum (or a
// member of an unconditional class) over the full original stream, so
// re-recording the set reproduces the same minima and the same class
// membership.
func (s *Server) loadFeedSnapshot(dir string, restored int) error {
	data, err := s.cfg.FS.ReadFile(filepath.Join(dir, alertfeedFile))
	if os.IsNotExist(err) {
		if s.feed != nil && restored > 0 {
			s.feed.mu.Lock()
			s.feed.incomplete = true
			s.feed.mu.Unlock()
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: alert feed restore: %w", err)
	}
	var snap feedSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("serve: alert feed restore: %w", err)
	}
	s.admitMu.Lock()
	s.seqSeen, s.seqFloor = snap.SeqSeen, snap.SeqFloor
	s.admitMu.Unlock()
	if s.feed == nil {
		return nil
	}
	c := console.NewCorrelator()
	bad := false
	for _, rec := range snap.Records {
		evs, perr := c.ParseBytes([]byte(rec.Raw), 1)
		if perr != nil || len(evs) != 1 {
			bad = true
			continue
		}
		s.feed.record(evs[0], rec.Seq)
	}
	s.feed.mu.Lock()
	s.feed.covered = snap.Covered
	if bad || snap.Covered != uint64(restored) {
		s.feed.incomplete = true
	}
	s.feed.mu.Unlock()
	return nil
}

// ReplayFeed reconstructs the alert stream from merged evidence
// records: parse each canonical rendering, feed them in sequence order
// through a fresh engine. The router calls this with the union of the
// replicas' records (already sorted by Seq); the result is
// byte-identical to the engine a single daemon ran over the full
// stream — see the superset-replay argument at the top of this file.
func ReplayFeed(cfg alert.Config, records []FeedRecord) ([]alert.Alert, error) {
	eng := alert.NewEngine(cfg)
	c := console.NewCorrelator()
	for _, rec := range records {
		evs, err := c.ParseBytes([]byte(rec.Raw), 1)
		if err != nil {
			return nil, fmt.Errorf("serve: feed replay: %w", err)
		}
		if len(evs) != 1 {
			return nil, fmt.Errorf("serve: feed replay: record seq %d parsed to %d events", rec.Seq, len(evs))
		}
		eng.Feed(evs[0])
	}
	return eng.Alerts(), nil
}
