// Package serve is titand's engine: a streaming reliability-telemetry
// service over the study's console-event pipeline. It accepts raw
// console lines over HTTP, decodes them on the zero-allocation fast path
// (regex fallback for deviating lines), folds them into per-node state
// — sliding-window XID rates, per-card error counters and the dynamic
// page-retirement machine — and runs the cross-node operator detectors
// (package alert) plus armed precursor rules (package predict) online.
// State is served as JSON, operational counters in the Prometheus text
// format.
//
// The service is explicitly overload-aware: a batch holds one of a
// bounded number of slots from admission until it is applied, a batch
// that finds none free is shed with 429 and exact dropped-line
// accounting, and SIGTERM drains the pipeline before flushing the
// retained event log to a dataset-compatible snapshot.
package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	runtimemetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/alert"
	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/jsonw"
	"titanre/internal/predict"
	"titanre/internal/store"
	"titanre/internal/topology"
)

// Config tunes the service.
type Config struct {
	// QueueDepth is how many batches may be admitted and not yet applied
	// (default 256). When that many are, POST /ingest sheds with 429.
	QueueDepth int
	// MaxBodyBytes caps one /ingest body (default 8 MiB).
	MaxBodyBytes int64
	// RateWindow is the sliding window for per-node XID rates
	// (default 24 h, the paper's burst-detection horizon).
	RateWindow time.Duration
	// Alerts configures the streaming operator detectors.
	Alerts alert.Config
	// Model, when non-nil, arms its precursor rules; /warnings serves
	// what they issue.
	Model *predict.Model
	// RetainEvents keeps every applied event in memory so a shutdown
	// snapshot can be written (default true; the ingest benchmark turns
	// it off).
	RetainEvents bool
	// SnapshotDir, when non-empty, receives a dataset-compatible
	// snapshot of the retained events on Shutdown.
	SnapshotDir string
	// CompactDir, when non-empty, enables compaction: retained events
	// older than CompactAge (measured against the newest applied event,
	// so historical replays compact too) are sealed into columnar
	// segments under this directory and dropped from memory, bounding
	// the retained log. Shutdown seals the remaining tail, so the
	// segments always hold the complete history afterwards.
	CompactDir string
	// CompactInterval is the background compaction cadence
	// (default 1 min when CompactDir is set).
	CompactInterval time.Duration
	// CompactAge is the minimum event age before sealing (default 10 min
	// of stream time); younger events stay hot in memory.
	CompactAge time.Duration
	// CompactMin is the minimum number of sealable events worth a
	// segment (default 1024); smaller backlogs wait for the next tick.
	CompactMin int
	// JournalDir, when non-empty, enables the arrival-order write-ahead
	// journal: every applied event is appended (as its canonical console
	// rendering) before it touches the online state, so a kill -9
	// restart replays segments then journal and lands byte-identical to
	// an uninterrupted daemon. Requires CompactDir (compaction drives
	// journal truncation) and a WarmStart before ingest.
	JournalDir string
	// JournalFsync is the journal durability policy: FsyncAlways (sync
	// every batch commit), FsyncInterval (timer-driven, the default) or
	// FsyncOff (page cache only).
	JournalFsync string
	// JournalSyncInterval is the FsyncInterval cadence (default 100 ms).
	JournalSyncInterval time.Duration
	// JournalRotateBytes caps one journal file (default 4 MiB).
	JournalRotateBytes int64
	// AlertFeed enables the cluster alert-feed collector: every applied
	// event tagged with a router-assigned global sequence contributes
	// evidence to GET /alertfeed, which a titanrouter merges across
	// replicas and replays into the exact single-daemon alert stream
	// (see alertfeed.go). DefaultConfig enables it; the collector costs
	// nothing measurable unless sequence-tagged batches arrive.
	AlertFeed bool
	// FS is the file system under every state directory above — journal,
	// segments, floor, checkpoint and both snapshots (nil is durable.OS;
	// tests put a durable.Mem here to cut power at any write boundary).
	FS durable.FS
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		QueueDepth:   256,
		MaxBodyBytes: 8 << 20,
		RateWindow:   24 * time.Hour,
		Alerts:       alert.DefaultConfig(),
		RetainEvents: true,
		AlertFeed:    true,
	}
}

// Server is one titand instance.
type Server struct {
	cfg     Config
	metrics *metrics

	// Admission (ingest.go). admitMu orders taking a slot against closing
	// admission; admitted counts batches ever given a slot and
	// appliedBatches those the applier has finished, so their difference
	// is the slots in use, and Quiesce waits for it to reach zero.
	// decoding tracks slot holders that have not handed off yet, handoff
	// carries their batches to the applier.
	admitMu        sync.Mutex
	closed         bool
	seqSeen        []uint64 // the window of applied sequence bases (admit), oldest first
	seqFloor       uint64
	admitted       atomic.Uint64
	appliedBatches atomic.Uint64
	decoding       sync.WaitGroup
	handoff        chan decoded

	// stateMu guards everything the applier owns: the derived state and
	// the retained log.
	stateMu sync.Mutex
	derived
	events []console.Event

	// viewMu makes the history visible to queries consistent across the
	// sealed/retained boundary: compaction publishes a sealed chunk and
	// trims the same events from the retained tail under the write lock,
	// and historyView captures (segments, tail) under the read lock, so
	// no reader ever sees an event in both places or in neither. Lock
	// order: viewMu before stateMu; sealedMu is never held across either.
	viewMu sync.RWMutex

	// sealedMu guards the sealed segment store handle; the store itself
	// is internally synchronized. lastCompact is the unix time of the
	// last successful compaction (0 = never).
	sealedMu    sync.Mutex
	sealed      *store.Store
	compactMu   sync.Mutex
	lastCompact atomic.Int64
	compactStop chan struct{}
	compactWG   sync.WaitGroup

	// journal is the write-ahead journal (nil unless JournalDir is set
	// and WarmStart opened it); sealedSeq is the global sequence the
	// sealed history durably covers — the SEALED floor — advanced by
	// compaction and used to truncate the journal.
	journal   atomic.Pointer[Journal]
	sealedSeq atomic.Uint64

	// recovMu guards the bookkeeping WarmStart fills: what it restored
	// and replayed, and the quarantine a degraded start had to do.
	recovMu    sync.Mutex
	warm       WarmStats
	recovery   store.Recovery
	eventsLost uint64

	// feed is the cluster alert-feed collector (nil unless
	// Config.AlertFeed); sources is the per-source ingest accounting
	// keyed by the X-Titan-Source header.
	feed      *alertFeed
	sourcesMu sync.Mutex
	sources   map[string]*sourceCounters

	applyWG sync.WaitGroup
	// stallGate, when holding a chan struct{}, makes the applier block on
	// it before each batch; the load-shedding tests use it to fill the
	// slots deterministically.
	stallGate atomic.Value

	mux     *http.ServeMux
	httpSrv *http.Server

	lifecycleMu sync.Mutex
	started     bool
	drained     bool
	draining    bool
}

// NewServer builds a server; the applier (and with CompactDir the
// compactor) starts immediately so a handler obtained from Handler can
// be used without Serve.
func NewServer(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RateWindow <= 0 {
		cfg.RateWindow = 24 * time.Hour
	}
	cfg.FS = durable.Or(cfg.FS)
	if cfg.CompactDir != "" {
		if cfg.CompactInterval <= 0 {
			cfg.CompactInterval = time.Minute
		}
		if cfg.CompactAge <= 0 {
			cfg.CompactAge = 10 * time.Minute
		}
		if cfg.CompactMin <= 0 {
			cfg.CompactMin = 1024
		}
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(time.Now()),
		handoff: make(chan decoded, cfg.QueueDepth), // a place per slot: a slot holder's send never blocks
		derived: newDerived(cfg),
		sources: make(map[string]*sourceCounters),
	}
	if cfg.AlertFeed {
		s.feed = newAlertFeed(cfg.Alerts)
	}
	s.applyWG.Add(1)
	go s.applier()
	if cfg.CompactDir != "" {
		s.compactStop = make(chan struct{})
		s.compactWG.Add(1)
		go s.compactLoop()
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /nodes/{cname}", s.handleNode)
	s.mux.HandleFunc("GET /nodes/{cname}/history", s.handleNodeHistory)
	s.mux.HandleFunc("GET /codes/{xid}/history", s.handleCodeHistory)
	s.mux.HandleFunc("GET /rollup", s.handleRollup)
	s.mux.HandleFunc("GET /top", s.handleTop)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /alertfeed", s.handleAlertFeed)
	s.mux.HandleFunc("GET /warnings", s.handleWarnings)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve listens on addr and serves until Shutdown.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.ServeListener(ln)
}

// ServeListener serves on an existing listener (tests inject one).
func (s *Server) ServeListener(ln net.Listener) error {
	s.lifecycleMu.Lock()
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.started = true
	srv := s.httpSrv
	s.lifecycleMu.Unlock()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Shutdown drains gracefully: stop accepting connections (in-flight
// requests complete), close admission, wait for the decodes still in
// flight to hand off and for the applier to drain everything admitted,
// then write the snapshot if configured. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifecycleMu.Lock()
	if s.drained {
		s.lifecycleMu.Unlock()
		return nil
	}
	s.draining = true
	srv := s.httpSrv
	s.lifecycleMu.Unlock()

	var httpErr error
	if srv != nil {
		httpErr = srv.Shutdown(ctx)
	}

	// Everything admitted before admission closed gets applied: once the
	// last slot holder has handed off nothing sends again, so the channel
	// can close and the applier run it dry.
	s.admitMu.Lock()
	first := !s.closed
	s.closed = true
	s.admitMu.Unlock()
	s.decoding.Wait()
	if first { // a Shutdown racing this one waits with it
		close(s.handoff)
	}
	s.applyWG.Wait()

	s.lifecycleMu.Lock()
	s.drained = true
	s.lifecycleMu.Unlock()

	// Stop the background compactor, then seal what it left: after the
	// final flush the segments hold the complete applied history, making
	// the compact directory alone sufficient for a warm restart.
	if s.compactStop != nil {
		close(s.compactStop)
		s.compactWG.Wait()
	}
	if s.cfg.CompactDir != "" && s.cfg.RetainEvents {
		if _, err := s.compact(0, 1); err != nil {
			return err
		}
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.WriteSnapshot(s.cfg.SnapshotDir); err != nil {
			return err
		}
		if err := s.writeFeedSnapshot(s.cfg.SnapshotDir); err != nil {
			return err
		}
	}
	// The checkpoint of the derived state: after the final seal, so it
	// covers exactly the sealed segments.
	if s.cfg.CompactDir != "" {
		if err := s.writeCheckpoint(); err != nil {
			return err
		}
	}
	// The journal closes last: the final seal above already advanced the
	// floor past everything it held, so after a clean shutdown a warm
	// start replays no journal, and with the checkpoint no segment either.
	if j := s.journal.Load(); j != nil {
		if err := j.Close(); err != nil && httpErr == nil {
			httpErr = fmt.Errorf("serve: closing journal: %w", err)
		}
	}
	return httpErr
}

// applyEventLocked folds one event into everything the applier owns —
// alert engine, precursor warner, per-code totals, the age watermark,
// the event's node. stateMu must be held. The live applier, segment
// replay and journal replay all feed through here (applyBatch), which
// is what makes a restarted daemon's state bit-equal to an
// uninterrupted one's.
func (s *Server) applyEventLocked(ev console.Event) {
	before := s.alertEngine.Count()
	s.alertEngine.Feed(ev)
	if d := s.alertEngine.Count() - before; d > 0 {
		s.metrics.alertsRaised.Add(uint64(d))
	}
	if s.warner != nil {
		if _, warned := s.warner.Feed(ev); warned {
			s.metrics.warningsIssued.Add(1)
		}
	}
	s.codeTotals[ev.Code]++
	if ev.Time.After(s.maxApplied) {
		s.maxApplied = ev.Time
	}
	s.applyNodeLocked(ev)
}

// ---- Handlers ----

// handleIngest admits one newline-delimited batch of console lines and
// decodes it (see ingest.go). 202: decoded and queued for the applier;
// 429: load shed before any decode work (X-Shed-Lines counts the
// discarded lines); 503: draining; 400/413: malformed.
//
// Three optional headers extend the contract for cluster operation:
// X-Titan-Source tags the batch's feed for per-source accounting, and
// X-Titan-Seq-Base / X-Titan-Seq-Mask carry the router's global line
// sequencing (both or neither; the mask popcount must equal the body's
// line count, else 400 — a split/seq disagreement must never be
// silently mis-sequenced). A sequenced sub-batch is applied once: the
// replay of a base already taken is 202 with X-Titan-Duplicate and not
// applied, a base older than the window admit keeps is 409.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	body, release, ok := ReadBody(w, r, s.cfg.MaxBodyBytes)
	defer release()
	start := s.metrics.observeStage(stageBodyRead, t0)
	if !ok {
		s.metrics.batchesRejected.Add(1)
		return
	}
	lines := console.CountLines(body)
	seqBase, positions, err := parseSeqHeaders(r, lines)
	if err != nil {
		s.metrics.batchesRejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	source := r.Header.Get(SourceHeader)
	switch status, duplicate := s.admit(seqBase, positions != nil); {
	case duplicate:
		s.metrics.batchesDuplicate.Add(1)
		s.metrics.linesDuplicate.Add(uint64(lines))
		w.Header().Set(DuplicateHeader, "1")
		w.WriteHeader(status)
	case status == http.StatusAccepted:
		s.metrics.batchesAccepted.Add(1)
		s.bookSource(source, lines, true)
		s.handOff(body, lines, seqBase, positions, start)
		s.metrics.observeLatency(time.Since(t0))
		w.WriteHeader(status)
	case status == http.StatusServiceUnavailable:
		s.metrics.batchesRejected.Add(1)
		http.Error(w, "draining", status)
	case status == http.StatusConflict:
		s.metrics.batchesStaleSeq.Add(1)
		http.Error(w, "sequence base older than the applied window", status)
	default:
		s.metrics.batchesShed.Add(1)
		s.metrics.linesShed.Add(uint64(lines))
		s.bookSource(source, lines, false)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("X-Shed-Lines", fmt.Sprint(lines))
		http.Error(w, "ingest queue full, batch shed", http.StatusTooManyRequests)
	}
}

// parseSeqHeaders reads the router's sequence tagging. Returns a nil
// positions slice when the batch is untagged.
func parseSeqHeaders(r *http.Request, lines int) (uint64, []int32, error) {
	baseStr := r.Header.Get(SeqBaseHeader)
	maskStr := r.Header.Get(SeqMaskHeader)
	if baseStr == "" && maskStr == "" {
		return 0, nil, nil
	}
	if baseStr == "" || maskStr == "" {
		return 0, nil, fmt.Errorf("%s and %s must be set together", SeqBaseHeader, SeqMaskHeader)
	}
	base, err := strconv.ParseUint(baseStr, 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad %s %q: %v", SeqBaseHeader, baseStr, err)
	}
	raw, err := base64.StdEncoding.DecodeString(maskStr)
	if err != nil {
		return 0, nil, fmt.Errorf("bad %s: %v", SeqMaskHeader, err)
	}
	mask := console.MaskFromBytes(raw)
	if got := console.MaskCount(mask); got != lines {
		return 0, nil, fmt.Errorf("%s popcount %d != body line count %d", SeqMaskHeader, got, lines)
	}
	return base, console.MaskPositions(mask), nil
}

// sourceCounters is the per-source ingest accounting; the invariant
// offered == accepted + shed holds exactly (503 drain responses are
// booked in neither — the batch was never offered to the queue and the
// client retries it).
type sourceCounters struct {
	offeredBatches, acceptedBatches, shedBatches uint64
	offeredLines, acceptedLines, shedLines       uint64
}

// The source name is client-supplied, so the set of names with their own
// books (and labelled /metrics series) is capped: once MaxSources
// distinct names are tracked, every further new name is booked under
// OverflowSource. The books still close exactly — the overflow entry is
// one more source — and at the router the overflow names share one QoS
// share, so a feed cannot dodge shedding by rotating its name.
const (
	MaxSources     = 256
	OverflowSource = "_overflow"
)

// SourceSlot returns table's record for a client-chosen source name,
// making it on first sight; once MaxSources names are tracked, every new
// one gets OverflowSource's. It returns the name the record is under. The
// caller holds the table's lock. Invalid UTF-8 in the name is U+FFFD
// here, as /stats and /metrics both spell it, so two names that render
// alike share one record instead of rendering as two.
func SourceSlot[T any](table map[string]*T, name string) (string, *T) {
	name = strings.ToValidUTF8(name, "\uFFFD")
	rec := table[name]
	if rec == nil && len(table) >= MaxSources {
		name = OverflowSource
		rec = table[name]
	}
	if rec == nil {
		rec = new(T)
		table[name] = rec
	}
	return name, rec
}

// bookSource books one admission decision against the batch's source.
// Untagged batches (no X-Titan-Source) are not tracked.
func (s *Server) bookSource(source string, lines int, accepted bool) {
	if source == "" {
		return
	}
	s.sourcesMu.Lock()
	defer s.sourcesMu.Unlock()
	_, sc := SourceSlot(s.sources, source)
	sc.offeredBatches++
	sc.offeredLines += uint64(lines)
	if accepted {
		sc.acceptedBatches++
		sc.acceptedLines += uint64(lines)
	} else {
		sc.shedBatches++
		sc.shedLines += uint64(lines)
	}
}

// SourceStats is the per-source slice of /stats.
type SourceStats struct {
	OfferedBatches  uint64 `json:"offered_batches" prom:"source_batches_offered_total" help:"Batches offered per source."`
	AcceptedBatches uint64 `json:"accepted_batches" prom:"source_batches_accepted_total" help:"Batches admitted per source."`
	ShedBatches     uint64 `json:"shed_batches" prom:"source_batches_shed_total" help:"Batches shed per source."`
	OfferedLines    uint64 `json:"offered_lines" prom:"source_lines_offered_total" help:"Console lines offered by each X-Titan-Source feed."`
	AcceptedLines   uint64 `json:"accepted_lines" prom:"source_lines_accepted_total" help:"Console lines admitted per source."`
	ShedLines       uint64 `json:"shed_lines" prom:"source_lines_shed_total" help:"Console lines shed per source (exact; offered = accepted + shed)."`
}

// sourceStats snapshots the per-source accounting.
func (s *Server) sourceStats() map[string]SourceStats {
	s.sourcesMu.Lock()
	defer s.sourcesMu.Unlock()
	if len(s.sources) == 0 {
		return nil
	}
	out := make(map[string]SourceStats, len(s.sources))
	for name, sc := range s.sources {
		out[name] = SourceStats{
			OfferedBatches:  sc.offeredBatches,
			AcceptedBatches: sc.acceptedBatches,
			ShedBatches:     sc.shedBatches,
			OfferedLines:    sc.offeredLines,
			AcceptedLines:   sc.acceptedLines,
			ShedLines:       sc.shedLines,
		}
	}
	return out
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	cname := r.PathValue("cname")
	node, err := topology.ParseNodeID(cname)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad cname %q: %v", cname, err), http.StatusBadRequest)
		return
	}
	s.stateMu.Lock()
	if int(node) >= len(s.nodes) || s.nodes[node].total == 0 {
		s.stateMu.Unlock()
		http.Error(w, fmt.Sprintf("no state for %s", cname), http.StatusNotFound)
		return
	}
	view := viewOf(node, &s.nodes[node], s.cfg.RateWindow)
	s.stateMu.Unlock()
	s.writeJSON(w, view)
}

// HistoryEvent is the JSON shape of one event in a node's history.
type HistoryEvent struct {
	Time   time.Time `json:"time"`
	Code   string    `json:"code"`
	Serial string    `json:"serial,omitempty"`
	// Page is the framebuffer page for ECC events; negative when not
	// applicable (mirrors console.Event.Page).
	Page int32 `json:"page"`
	Job  int64 `json:"job,omitempty"`
}

// NodeHistory is the GET /nodes/{cname}/history document.
type NodeHistory struct {
	Node      string         `json:"node"`
	Sealed    int            `json:"sealed_events"`
	Retained  int            `json:"retained_events"`
	Truncated bool           `json:"truncated,omitempty"`
	Events    []HistoryEvent `json:"events"`
}

// AppendJSON renders the document as the indented JSON encoding/json
// writes for it (events are never nil: the handler makes the slice).
func (h NodeHistory) AppendJSON(dst []byte) []byte { return jsonw.Append(dst, h) }

// WriteJSON writes the document as one value.
func (h NodeHistory) WriteJSON(w *jsonw.W) {
	writeHistoryHead(w, "node", h.Node, h.Sealed, h.Retained, h.Truncated)
	for i := range h.Events {
		e := &h.Events[i]
		writeEvent(w, e.Time, "code", e.Code, e.Serial, e.Page, e.Job)
	}
	w.EndArr()
	w.EndObj()
}

// writeHistoryHead opens a history document, whose it is under key, as
// far as its events array.
func writeHistoryHead(w *jsonw.W, key, name string, sealed, retained int, truncated bool) {
	w.Obj()
	w.Key(key).Str(name)
	w.Key("sealed_events").Int(int64(sealed))
	w.Key("retained_events").Int(int64(retained))
	if truncated {
		w.Key("truncated").Any(true)
	}
	w.Key("events").Arr()
}

// writeEvent renders one history event. What tells it from its
// neighbours — the code in a node's history, the node in a code's —
// comes second, under key.
func writeEvent(w *jsonw.W, t time.Time, key, name, serial string, page int32, job int64) {
	w.Obj()
	w.Key("time").Time(t)
	w.Key(key).Str(name)
	w.OmitStr("serial", serial)
	w.Key("page").Int(int64(page))
	w.OmitInt("job", job)
	w.EndObj()
}

// historyView captures a consistent (sealed segments, retained tail)
// snapshot under viewMu: compaction publishes a chunk and trims the
// tail under the same lock, so the pair never double-counts or drops an
// event mid-compaction. Both halves are immutable after capture — the
// segments are sealed and the tail is a capacity-clamped slice of an
// append-only log — so the (possibly slow) scans run lock-free.
func (s *Server) historyView() ([]*store.Segment, []console.Event) {
	s.viewMu.RLock()
	defer s.viewMu.RUnlock()
	var segs []*store.Segment
	if sealed := s.SealedStore(); sealed != nil {
		segs = sealed.Segments()
	}
	s.stateMu.Lock()
	tail := s.events[:len(s.events):len(s.events)]
	s.stateMu.Unlock()
	return segs, tail
}

// parseTimeRange reads optional ?since= / ?until= RFC 3339 bounds; the
// error is the 400's body.
func parseTimeRange(q url.Values) (since, until time.Time, err error) {
	if v := q.Get("since"); v != "" {
		if since, err = time.Parse(time.RFC3339, v); err != nil {
			return since, until, fmt.Errorf("bad since %q: %v", v, err)
		}
	}
	if v := q.Get("until"); v != "" {
		if until, err = time.Parse(time.RFC3339, v); err != nil {
			return since, until, fmt.Errorf("bad until %q: %v", v, err)
		}
	}
	return since, until, nil
}

// AlertView is the JSON shape of one raised alert.
type AlertView struct {
	Kind   string    `json:"kind"`
	Time   time.Time `json:"time"`
	Code   string    `json:"code"`
	Node   string    `json:"node"`
	Serial string    `json:"serial,omitempty"`
	Count  int       `json:"count,omitempty"`
	Detail string    `json:"detail"`
	// Text is the canonical rendering — byte-identical to the batch
	// pipeline's alert.Alert.String() for the same stream.
	Text string `json:"text"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	alerts := s.alertEngine.Alerts()
	s.stateMu.Unlock()
	s.writeJSON(w, AlertViews(alerts))
}

// AlertViews renders raised alerts into the /alerts JSON shape — shared
// with the router, whose merged cluster alert stream must be
// byte-identical to a single daemon's response.
func AlertViews(alerts []alert.Alert) []AlertView {
	views := make([]AlertView, 0, len(alerts))
	for _, a := range alerts {
		v := AlertView{
			Kind:   a.Kind.String(),
			Time:   a.Time,
			Code:   a.Code.String(),
			Node:   topology.CNameOf(a.Node),
			Count:  a.Count,
			Detail: a.Detail,
			Text:   a.String(),
		}
		if a.Serial != 0 {
			v.Serial = a.Serial.String()
		}
		views = append(views, v)
	}
	return views
}

// WarningView is the JSON shape of one issued precursor warning.
type WarningView struct {
	Time       time.Time `json:"time"`
	Node       string    `json:"node"`
	Precursor  string    `json:"precursor"`
	Target     string    `json:"target"`
	Confidence float64   `json:"confidence"`
	Deadline   time.Time `json:"deadline"`
	// Text is the canonical rendering, byte-identical to the batch
	// pipeline's predict.Warning.String().
	Text string `json:"text"`
}

func (s *Server) handleWarnings(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	var warnings []predict.Warning
	if s.warner != nil {
		warnings = s.warner.Warnings()
	}
	s.stateMu.Unlock()
	views := make([]WarningView, 0, len(warnings))
	for _, warn := range warnings {
		views = append(views, WarningView{
			Time:       warn.Time,
			Node:       topology.CNameOf(warn.Node),
			Precursor:  warn.Precursor.String(),
			Target:     warn.Target.String(),
			Confidence: warn.Confidence,
			Deadline:   warn.Deadline,
			Text:       warn.String(),
		})
	}
	s.writeJSON(w, views)
}

// Stats is the one gather of titand's figures: /stats serves it as JSON
// and /metrics renders the same value through AppendMetrics, so each
// field's tags are the only declaration of its series.
type Stats struct {
	UptimeSeconds   float64        `json:"uptime_seconds" prom:"uptime_seconds" help:"Seconds since the service started."`
	Draining        bool           `json:"draining" prom:"draining" help:"1 while the server is draining toward shutdown."`
	BatchesAccepted uint64         `json:"batches_accepted" prom:"ingest_batches_accepted_total" help:"POST /ingest bodies admitted: decoded and queued for the applier."`
	BatchesShed     uint64         `json:"batches_shed" prom:"ingest_batches_shed_total" help:"POST /ingest bodies rejected with 429 because the queue was full."`
	BatchesRejected uint64         `json:"batches_rejected" prom:"ingest_batches_rejected_total" help:"POST /ingest bodies rejected as malformed (wrong method, oversized body, read error)."`
	LinesAccepted   uint64         `json:"lines_accepted" prom:"ingest_lines_total" help:"Console lines read out of accepted batches."`
	LinesShed       uint64         `json:"lines_shed" prom:"ingest_lines_shed_total" help:"Console lines discarded by load shedding (newline count of shed bodies)."`
	Events          uint64         `json:"events_decoded" prom:"decode_events_total" help:"Lines that decoded into critical-event records."`
	EventsApplied   uint64         `json:"events_applied" prom:"events_applied_total" help:"Events applied to the online state (global detectors + node shards)."`
	Chatter         uint64         `json:"lines_chatter" prom:"decode_chatter_total" help:"Lines dropped because no SEC rule matched."`
	Malformed       uint64         `json:"lines_malformed" prom:"decode_malformed_total" help:"Lines that matched a rule but could not be decoded."`
	Oversized       uint64         `json:"lines_oversized" prom:"decode_oversized_total" help:"Lines over the 1 MiB record cap, skipped at the line reader."`
	FastHits        uint64         `json:"decode_fast_hits" prom:"decode_fast_hits_total" help:"Lines decoded on the zero-allocation fast path."`
	FastFallbacks   uint64         `json:"decode_fast_fallbacks" prom:"decode_fast_fallbacks_total" help:"Lines that left the fast path for the regex fallback."`
	AlertsRaised    uint64         `json:"alerts_raised" prom:"alerts_raised_total" help:"Operator alerts raised by the streaming detectors."`
	WarningsIssued  uint64         `json:"warnings_issued" prom:"warnings_issued_total" help:"Precursor warnings issued by the armed prediction rules."`
	QueueDepth      int            `json:"queue_depth" prom:"queue_depth" help:"Batches admitted and not yet applied."`
	QueueCapacity   int            `json:"queue_capacity" prom:"queue_capacity" help:"Most batches that may be admitted and not yet applied at once."`
	NodesTracked    int            `json:"nodes_tracked" prom:"nodes_tracked" help:"Nodes with online reliability state."`
	CardsTracked    int            `json:"cards_tracked" prom:"cards_tracked" help:"GPU cards with online reliability state."`
	EventsByCode    map[string]int `json:"events_by_code"`

	// Router-sequenced sub-batches answered without applying them: replays
	// of a base already taken (202), and bases older than the window (409).
	BatchesDuplicate uint64 `json:"batches_duplicate" prom:"ingest_batches_duplicate_total" help:"Sequenced sub-batches answered 202 without applying them: replays of a base already taken."`
	LinesDuplicate   uint64 `json:"lines_duplicate" prom:"ingest_lines_duplicate_total" help:"Console lines in those replays."`
	BatchesStaleSeq  uint64 `json:"batches_stale_seq" prom:"ingest_batches_stale_seq_total" help:"Sequenced sub-batches refused with 409: a base older than the window of applied bases."`
	// AlertFeedComplete is /alertfeed's "complete": false once the feed
	// cannot vouch for a merged /alerts (untagged ingest, a crash restart).
	AlertFeedComplete bool `json:"alert_feed_complete" prom:"alert_feed_complete" help:"1 while /alertfeed can vouch for a merged /alerts (0 after untagged ingest or a crash restart)."`

	// IngestStageSeconds is the write path's wall time, stage by stage.
	IngestStageSeconds StageSeconds `json:"ingest_stage_seconds" prom:"ingest_stage_seconds_total{stage}" help:"Wall time in each write-path stage (one reading per batch; per compaction pass for seal); over events applied it is the stage's time per event."`

	// Compaction and memory (see internal/store): the retained tail is
	// what is still hot in memory; sealed figures cover the on-disk
	// columnar segments.
	RetainedEvents     int    `json:"retained_events" prom:"retained_events" help:"Applied events still held in memory (the unsealed tail)."`
	SealedSegments     int    `json:"sealed_segments" prom:"sealed_segments" help:"On-disk columnar segments sealed by compaction."`
	SealedEvents       int    `json:"sealed_events" prom:"sealed_events" help:"Events stored in sealed columnar segments."`
	SealedSegmentBytes int64  `json:"sealed_segment_bytes" prom:"sealed_segment_bytes" help:"Total on-disk bytes of sealed segment files."`
	SealedMappedBytes  int64  `json:"sealed_mapped_bytes" prom:"sealed_mapped_bytes" help:"Sealed segment bytes served from read-only file mappings (0 on the heap path)."`
	NodeIndexBytes     int64  `json:"node_index_bytes" prom:"node_index_bytes" help:"Heap bytes of the sealed segments' node indexes (rows grouped by node), each built on the first per-node read."`
	Compactions        uint64 `json:"compactions" prom:"compactions_total" help:"Compaction passes that sealed retained events into segments."`
	CompactionFailures uint64 `json:"compaction_failures" prom:"compaction_failures_total" help:"Compaction passes that failed to seal (events stay retained)."`
	CompactionRetries  uint64 `json:"compaction_retries" prom:"compaction_retries_total" help:"Chunk seals retried after a transient I/O fault (jittered exponential backoff)."`
	EventsSealed       uint64 `json:"events_sealed" prom:"events_sealed_total" help:"Events moved from the retained log into on-disk columnar segments."`
	LastCompactionUnix int64  `json:"last_compaction_unix" prom:"last_compaction_timestamp_seconds" help:"Unix time of the last successful compaction (0 = never)."`
	HeapInuseBytes     uint64 `json:"heap_inuse_bytes" prom:"heap_inuse_bytes" help:"Go runtime heap bytes in use (runtime.MemStats.HeapInuse)."`

	// Crash recovery: Degraded is true when a warm start had to
	// quarantine corrupt segments; the quarantine figures are exact
	// (EventsLost comes from the SEALED floor — the sequence the history
	// should cover minus what actually loaded).
	Degraded            bool   `json:"degraded" prom:"degraded" help:"1 when the warm start quarantined corrupt segments; the detector history has counted holes."`
	QuarantinedSegments int    `json:"quarantined_segments" prom:"quarantined_segments" help:"Corrupt segment files moved aside by the warm start."`
	QuarantinedBytes    int64  `json:"quarantined_bytes" prom:"quarantined_bytes" help:"On-disk bytes of quarantined segment files."`
	EventsLost          uint64 `json:"events_lost_to_quarantine" prom:"events_lost_to_quarantine" help:"Exact events inside quarantined segments (from the SEALED floor arithmetic)."`
	OrphansRemoved      int    `json:"orphans_removed" prom:"orphans_removed" help:"Uncommitted temp files (segments, floor, checkpoint, snapshots) the warm start removed."`
	SealedSeq           uint64 `json:"sealed_seq" prom:"sealed_seq" help:"Global sequence the sealed history durably covers (the SEALED floor)."`

	// Fleet-wide query endpoints.
	QueryNodeHistory uint64 `json:"query_node_history" prom:"query_node_history_total" help:"Node history queries served (GET /nodes/{cname}/history)."`
	QueryCodeHistory uint64 `json:"query_code_history" prom:"query_code_history_total" help:"Fleet-wide code history queries served (GET /codes/{xid}/history)."`
	QueryRollup      uint64 `json:"query_rollup" prom:"query_rollup_total" help:"Time-bucketed rollup queries served (GET /rollup)."`
	QueryTop         uint64 `json:"query_top" prom:"query_top_total" help:"Top-offender queries served (GET /top)."`
	Queries          uint64 `json:"queries" prom:"queries_total" help:"titanql plans received on GET /query (accepted or not)."`
	QueryErrors      uint64 `json:"query_errors" prom:"query_errors_total" help:"GET /query requests rejected at parse, compile or execute."`
	// Rows /rollup, /top and /query folded and the seconds those folds
	// took: their quotient is the query kernels' time per row.
	QueryRowsFolded  uint64  `json:"query_rows_folded" prom:"query_rows_folded_total" help:"Rows folded into accumulators by /rollup, /top and /query."`
	QueryFoldSeconds float64 `json:"query_fold_seconds" prom:"query_fold_seconds_total" help:"Wall time of those folds (scan and worker merge, before rendering); over rows folded it is the kernels' time per row."`
	// Rows those folds' kernels read: both passes of a count-first
	// ranking, none for a segment counted off its node index.
	QueryRowsVisited uint64 `json:"query_rows_visited" prom:"query_rows_visited_total" help:"Rows the /rollup, /top and /query kernels read, every pass (a ranking by node counts whole segments off their node index and reads only its winners' rows)."`
	// Seconds spent rendering and sending the self-rendering documents
	// (rollup, top, query, the two histories) and the bytes they came to.
	QueryRenderSeconds float64 `json:"query_render_seconds" prom:"query_render_seconds_total" help:"Wall time rendering and sending the self-rendering query documents (rollup, top, query, histories); over render bytes it is the render's time per byte."`
	QueryRenderBytes   uint64  `json:"query_render_bytes" prom:"query_render_bytes_total" help:"Bytes of those documents."`

	// Journal is present when the write-ahead journal is active.
	Journal *JournalStats `json:"journal,omitempty" prom:""`

	// Sources is the per-source ingest accounting (batches tagged with
	// X-Titan-Source); offered == accepted + shed holds per source.
	Sources map[string]SourceStats `json:"sources,omitempty" prom:"{source}"`

	// Warm start: the events the restored state covers came from the
	// checkpoint or were fed back through the apply step (segments,
	// console.log and journal); WarmCheckpointUnused is why no checkpoint
	// was restored, empty when one was or without a warm start.
	WarmEventsCheckpointed uint64 `json:"warm_events_checkpointed" prom:"warm_events_checkpointed" help:"Events the warm start restored from the derived-state checkpoint."`
	WarmEventsReplayed     uint64 `json:"warm_events_replayed" prom:"warm_events_replayed" help:"Events the warm start fed back through the apply step (segments past the checkpoint, console.log, journal)."`
	WarmCheckpointUnused   string `json:"warm_checkpoint_unused,omitempty"`
	// The warm start's phases, in wall seconds (WarmStats has them as
	// durations): 0 for a phase that did not run.
	WarmOpenSeconds          float64 `json:"warm_open_seconds" prom:"warm_open_seconds" help:"Wall time the warm start spent opening the sealed segments, each verified by SHA-256 and structure."`
	WarmCheckpointSeconds    float64 `json:"warm_checkpoint_seconds" prom:"warm_checkpoint_seconds" help:"Wall time the warm start spent reading, verifying and restoring the derived-state checkpoint."`
	WarmSegmentReplaySeconds float64 `json:"warm_segment_replay_seconds" prom:"warm_segment_replay_seconds" help:"Wall time the warm start spent feeding the history past the checkpoint (segments, or console.log) through the apply step."`
	WarmJournalReplaySeconds float64 `json:"warm_journal_replay_seconds" prom:"warm_journal_replay_seconds" help:"Wall time the warm start spent opening the journal and replaying its records."`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.StatsNow())
}

// StatsNow assembles the current /stats document.
func (s *Server) StatsNow() Stats {
	m := s.metrics
	applied := s.appliedBatches.Load() // read first: it never passes admitted
	st := Stats{
		UptimeSeconds:   time.Since(m.start).Seconds(),
		BatchesAccepted: m.batchesAccepted.Load(),
		BatchesShed:     m.batchesShed.Load(),
		BatchesRejected: m.batchesRejected.Load(),
		LinesAccepted:   m.linesAccepted.Load(),
		LinesShed:       m.linesShed.Load(),
		Events:          m.events.Load(),
		EventsApplied:   m.eventsApplied.Load(),
		Chatter:         m.dropped.Load(),
		Malformed:       m.malformed.Load(),
		Oversized:       m.oversized.Load(),
		FastHits:        m.fastHits.Load(),
		FastFallbacks:   m.fastFallbacks.Load(),
		AlertsRaised:    m.alertsRaised.Load(),
		WarningsIssued:  m.warningsIssued.Load(),
		QueueDepth:      int(s.admitted.Load() - applied),
		QueueCapacity:   s.cfg.QueueDepth,
		EventsByCode:    map[string]int{},

		BatchesDuplicate:  m.batchesDuplicate.Load(),
		LinesDuplicate:    m.linesDuplicate.Load(),
		BatchesStaleSeq:   m.batchesStaleSeq.Load(),
		AlertFeedComplete: s.feed != nil && s.feed.complete(),

		IngestStageSeconds: m.stageSeconds(),
	}
	s.lifecycleMu.Lock()
	st.Draining = s.draining
	s.lifecycleMu.Unlock()
	s.stateMu.Lock()
	for code, n := range s.codeTotals {
		st.EventsByCode[code.String()] = n
	}
	st.RetainedEvents = len(s.events)
	st.NodesTracked, st.CardsTracked = s.nodesTracked, s.cardsTracked
	s.stateMu.Unlock()
	if sealed := s.SealedStore(); sealed != nil {
		st.SealedSegments = sealed.SegmentCount()
		st.SealedEvents = sealed.EventCount()
		st.SealedSegmentBytes = sealed.DiskBytes()
		st.SealedMappedBytes = sealed.MappedBytes()
		st.NodeIndexBytes = sealed.NodeIndexBytes()
	}
	st.QueryNodeHistory = m.queryNodeHistory.Load()
	st.QueryCodeHistory = m.queryCodeHistory.Load()
	st.QueryRollup = m.queryRollup.Load()
	st.QueryTop = m.queryTop.Load()
	st.Queries = m.queries.Load()
	st.QueryErrors = m.queryErrors.Load()
	st.QueryRowsFolded = m.rowsFolded.Load()
	st.QueryRowsVisited = m.rowsVisited.Load()
	st.QueryFoldSeconds = float64(m.foldNanos.Load()) / 1e9
	st.QueryRenderSeconds = float64(m.renderNanos.Load()) / 1e9
	st.QueryRenderBytes = m.renderBytes.Load()
	st.Compactions = m.compactions.Load()
	st.CompactionFailures = m.compactFailures.Load()
	st.CompactionRetries = m.compactRetries.Load()
	st.EventsSealed = m.eventsSealed.Load()
	st.LastCompactionUnix = s.lastCompact.Load()
	st.SealedSeq = s.sealedSeq.Load()
	s.recovMu.Lock()
	st.QuarantinedSegments = len(s.recovery.Quarantined)
	st.QuarantinedBytes = s.recovery.QuarantinedBytes
	st.OrphansRemoved = s.recovery.OrphansRemoved
	st.EventsLost = s.eventsLost
	st.WarmEventsCheckpointed = uint64(s.warm.Checkpointed)
	st.WarmEventsReplayed = uint64(s.warm.Replayed - s.warm.Checkpointed + s.warm.JournalReplayed)
	st.WarmCheckpointUnused = s.warm.CheckpointUnused
	w := s.warm
	st.WarmOpenSeconds, st.WarmCheckpointSeconds = w.Open.Seconds(), w.CheckpointRestore.Seconds()
	st.WarmSegmentReplaySeconds, st.WarmJournalReplaySeconds = w.SegmentReplay.Seconds(), w.JournalReplay.Seconds()
	s.recovMu.Unlock()
	st.Degraded = st.QuarantinedSegments > 0 || st.EventsLost > 0
	if j := s.journal.Load(); j != nil {
		js := j.Stats()
		st.Journal = &js
	}
	st.Sources = s.sourceStats()
	st.HeapInuseBytes = heapInuse()
	return st
}

// heapInuse is runtime.MemStats.HeapInuse — live objects plus the unused
// room in their spans — read from runtime/metrics, which does not stop
// the world the way runtime.ReadMemStats does: pollers scrape /stats
// every few milliseconds through the replay they are timing.
func heapInuse() uint64 {
	samples := []runtimemetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	runtimemetrics.Read(samples)
	return samples[0].Value.Uint64() + samples[1].Value.Uint64()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// The status header is already out by the time a write can fail.
	_, _ = w.Write(s.metrics.appendMetrics(nil, s.StatsNow()))
}

// handleHealthz reads the same snapshot /stats serves. history is the
// confidence flag a degraded start carries: the daemon is serving, but
// quarantined segments mean its detector state was rebuilt from a
// history with counted holes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.StatsNow()
	pick := func(on bool, yes, no string) string {
		if on {
			return yes
		}
		return no
	}
	s.writeJSON(w, map[string]any{
		"status":         pick(st.Draining, "draining", "ok"),
		"history":        pick(st.Degraded, "degraded", "complete"),
		"alert_feed":     pick(st.AlertFeedComplete, "complete", "incomplete"),
		"uptime_seconds": st.UptimeSeconds,
	})
}

// writeJSON answers with v through jsonw.Write, the one JSON emitter:
// the hot documents render themselves and are booked as render time and
// bytes; the rest go through encoding/json there.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	start := time.Now()
	// The status header is already out by the time a write can fail, so
	// a mid-body error has no better recovery than closing the stream.
	if n, _ := jsonw.Write(w, v); n > 0 {
		s.metrics.renderNanos.Add(uint64(time.Since(start)))
		s.metrics.renderBytes.Add(uint64(n))
	}
}

// AlertTexts returns the canonical renderings of every raised alert, in
// firing order — the equivalence tests compare these against the batch
// pipeline byte for byte.
func (s *Server) AlertTexts() []string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	out := make([]string, 0, s.alertEngine.Count())
	for _, a := range s.alertEngine.Alerts() {
		out = append(out, a.String())
	}
	return out
}

// WarningTexts returns the canonical renderings of every issued
// warning, in firing order.
func (s *Server) WarningTexts() []string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.warner == nil {
		return nil
	}
	warnings := s.warner.Warnings()
	out := make([]string, 0, len(warnings))
	for _, w := range warnings {
		out = append(out, w.String())
	}
	return out
}

// Quiesce blocks until everything admitted so far has been applied to
// the online state — the streaming analogue of "the batch run
// finished". It does not stop admission; tests and the replay client
// call it between streaming and asserting.
func (s *Server) Quiesce(ctx context.Context) error {
	for admitted := s.admitted.Load(); s.appliedBatches.Load() < admitted; {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// StallForTest makes the applier block on gate before applying its next
// batch. Closing the gate releases it for good (receives on a closed
// channel return immediately). The load-shedding tests here, the router's
// QoS tests and its fleet schedules use it to fill the slots, or hold what
// is acknowledged in them, deterministically.
func (s *Server) StallForTest(gate chan struct{}) { s.stallGate.Store(gate) }

// String renders a one-line summary for logs.
func (s *Server) String() string {
	st := s.StatsNow()
	return fmt.Sprintf("titand: %d lines in, %d events applied, %d shed, %d alerts, %d warnings, %d nodes tracked",
		st.LinesAccepted, st.EventsApplied, st.LinesShed, st.AlertsRaised, st.WarningsIssued, st.NodesTracked)
}
