package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"titanre/internal/alert"
	"titanre/internal/bincode"
	"titanre/internal/durable"
	"titanre/internal/gpu"
	"titanre/internal/predict"
	"titanre/internal/store"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Restart checkpoint.
//
// A clean shutdown leaves the sealed segments holding the whole applied
// history, and the online state is a pure function of that history in
// order (applyEventLocked is the only writer). Rebuilding it by pushing
// every sealed event back through applyBatch costs time in proportion to
// the history; the checkpoint costs time in proportion to the state. At
// the end of Shutdown — after the final seal, so the state corresponds
// exactly to the sealed segments — titand writes everything
// applyEventLocked owns into CHECKPOINT beside SEALED: the per-node
// table, the per-code totals, the age watermark, the applied / alerts /
// warnings counters, the alert engine and the precursor warner. The
// checkpoint names what it covers — the segment prefix, as (file name,
// SHA-256) pairs — and what shaped it: a fingerprint of the rate
// window, the alert config, the model's rules and the format version.
//
// WarmStart uses a checkpoint whose fingerprint matches and whose prefix
// is intact at open: it restores the state and replays only the segments
// after the prefix, then the journal. Anything else — no file, a failed
// digest, another config, a covered segment quarantined or gone — is no
// usable checkpoint, which is empty state at position 0: the same replay
// from the first segment, with the reason booked on /stats. The file is
// never consumed, so a kill -9 after a restart still restores it and
// replays only what was sealed since.

// checkpointFile is the checkpoint's name inside the segment directory.
const checkpointFile = "CHECKPOINT"

// checkpointVersion is the format version; it is part of the
// fingerprint, so a daemon never reads another version's state.
const checkpointVersion = 1

var checkpointMagic = [8]byte{'T', 'I', 'T', 'A', 'N', 'C', 'K', 'P'}

// checkpoint is the derived state a checkpoint file carries, with what
// it covers. Encoding walks it, decoding builds one.
type checkpoint struct {
	fingerprint [sha256.Size]byte
	segments    []store.SegmentID

	applied, alertsRaised, warningsIssued uint64
	maxApplied                            time.Time
	codeTotals                            map[xid.Code]int
	nodes                                 []*nodeState // indexed by topology.NodeID
	engine                                *alert.Engine
	warner                                *predict.Warner // nil without a model
}

// checkpointFingerprint digests everything besides the history that
// shapes the derived state.
func checkpointFingerprint(cfg Config) [sha256.Size]byte {
	b := bincode.AppendUint(nil, checkpointVersion)
	b = bincode.AppendInt(b, int64(cfg.RateWindow))
	a := cfg.Alerts
	b = bincode.AppendInt(b, int64(a.DBEThreshold))
	b = bincode.AppendInt(b, int64(a.BurstWindow))
	b = bincode.AppendInt(b, int64(a.BurstCount))
	b = bincode.AppendBool(b, a.BurstCodes != nil) // nil is every code, empty is none
	b = bincode.AppendUint(b, uint64(len(a.BurstCodes)))
	for _, c := range a.BurstCodes {
		b = bincode.AppendInt(b, int64(c))
	}
	b = bincode.AppendInt(b, int64(a.SuspectJobs))
	b = bincode.AppendBool(b, a.NewCodes)
	b = bincode.AppendBool(b, cfg.Model != nil)
	if cfg.Model != nil {
		b = cfg.Model.AppendFingerprint(b)
	}
	return sha256.Sum256(b)
}

// append encodes cp, SHA-256 trailer included. Maps go out in ascending
// key order and nodes in NodeID order, so equal state encodes to equal
// bytes.
func (cp *checkpoint) append(b []byte) []byte {
	start := len(b)
	b = append(b, checkpointMagic[:]...)
	b = append(b, cp.fingerprint[:]...)
	b = bincode.AppendUint(b, uint64(len(cp.segments)))
	for _, id := range cp.segments {
		b = append(bincode.AppendString(b, id.Name), id.Digest[:]...)
	}
	b = bincode.AppendUint(b, cp.applied)
	b = bincode.AppendUint(b, cp.alertsRaised)
	b = bincode.AppendUint(b, cp.warningsIssued)
	b = bincode.AppendTime(b, cp.maxApplied)
	b = bincode.AppendUint(b, uint64(len(cp.codeTotals)))
	for _, c := range bincode.SortedKeys(cp.codeTotals) {
		b = bincode.AppendInt(bincode.AppendInt(b, int64(c)), int64(cp.codeTotals[c]))
	}
	tracked := 0
	for _, ns := range cp.nodes {
		if ns != nil {
			tracked++
		}
	}
	b = bincode.AppendUint(b, uint64(tracked))
	for _, ns := range cp.nodes {
		if ns != nil {
			b = ns.appendState(b)
		}
	}
	b = cp.engine.AppendState(b)
	if cp.warner != nil {
		b = cp.warner.AppendState(b)
	}
	digest := sha256.Sum256(b[start:])
	return append(b, digest[:]...)
}

func (ns *nodeState) appendState(b []byte) []byte {
	b = bincode.AppendUint(b, uint64(ns.node))
	b = bincode.AppendInt(b, int64(ns.total))
	b = bincode.AppendUint(b, uint64(len(ns.byCode)))
	for _, c := range ns.byCode {
		b = bincode.AppendInt(bincode.AppendInt(b, int64(c.code)), int64(c.n))
	}
	b = bincode.AppendUint(b, uint64(len(ns.window)))
	for _, w := range ns.window {
		b = bincode.AppendInt(bincode.AppendTime(b, w.at), int64(w.code))
	}
	b = bincode.AppendTime(bincode.AppendTime(b, ns.firstSeen), ns.lastSeen)
	b = bincode.AppendUint(b, uint64(len(ns.cards)))
	for _, cs := range ns.cards {
		b = bincode.AppendUint(b, uint64(cs.serial))
		b = bincode.AppendInt(b, int64(cs.dbeEvents))
		b = bincode.AppendInt(b, int64(cs.sbeInferred))
		b = cs.counts.AppendState(b)
		b = cs.retirement.AppendState(b)
		b = bincode.AppendTime(b, cs.lastSeen)
	}
	return b
}

// errCheckpointFingerprint is decodeCheckpoint's answer for a checkpoint
// written under another rate window, alert config, model or format.
var errCheckpointFingerprint = errors.New("fingerprint differs")

// decodeCheckpoint parses and validates a checkpoint written under cfg.
// It never panics; whatever it accepts re-encodes to data exactly.
func decodeCheckpoint(data []byte, cfg Config) (*checkpoint, error) {
	if len(data) < len(checkpointMagic)+2*sha256.Size {
		return nil, fmt.Errorf("truncated (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(body) != [sha256.Size]byte(trailer) {
		return nil, errors.New("digest mismatch")
	}
	if !bytes.HasPrefix(body, checkpointMagic[:]) {
		return nil, errors.New("bad magic")
	}
	cp := &checkpoint{
		fingerprint: [sha256.Size]byte(body[len(checkpointMagic):]),
		codeTotals:  make(map[xid.Code]int),
		nodes:       make([]*nodeState, topology.TotalNodes),
		engine:      alert.NewEngine(cfg.Alerts),
	}
	if cp.fingerprint != checkpointFingerprint(cfg) {
		return nil, errCheckpointFingerprint
	}
	r := bincode.NewReader(body[len(checkpointMagic)+sha256.Size:])
	for n := r.Count(1 + sha256.Size); n > 0 && r.Err() == nil; n-- {
		id := store.SegmentID{Name: r.String()}
		copy(id.Digest[:], r.Bytes(sha256.Size))
		cp.segments = append(cp.segments, id)
	}
	cp.applied, cp.alertsRaised, cp.warningsIssued = r.Uint(), r.Uint(), r.Uint()
	cp.maxApplied = r.Time()
	var prevCode xid.Code
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		c := xid.Code(r.Int())
		if i > 0 && c <= prevCode {
			r.Fail("code totals out of order")
		}
		cp.codeTotals[c] = int(r.Int())
		prevCode = c
	}
	tracked := r.Count(8)
	states := make([]nodeState, tracked)
	var arena nodeArena
	for i := range states {
		ns := &states[i]
		ns.restoreState(r, &arena)
		if r.Err() != nil {
			break
		}
		if !ns.node.Valid() || (i > 0 && ns.node <= states[i-1].node) {
			r.Fail("node %d out of order", ns.node)
			break
		}
		cp.nodes[ns.node] = ns
	}
	cp.engine.RestoreState(r)
	if cfg.Model != nil {
		cp.warner = predict.NewWarner(cfg.Model)
		cp.warner.RestoreState(r)
	}
	if r.Err() == nil && len(r.Rest()) > 0 {
		r.Fail("%d trailing bytes", len(r.Rest()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return cp, nil
}

func (ns *nodeState) restoreState(r *bincode.Reader, arena *nodeArena) {
	ns.node = topology.NodeID(r.Uint())
	ns.total = int(r.Int())
	ns.byCode = carve(&arena.codes, r.Count(2))
	for i := range ns.byCode {
		ns.byCode[i] = codeCount{code: xid.Code(r.Int()), n: int(r.Int())}
	}
	ns.window = carve(&arena.window, r.Count(3))
	for i := range ns.window {
		ns.window[i] = windowEntry{at: r.Time(), code: xid.Code(r.Int())}
	}
	ns.firstSeen, ns.lastSeen = r.Time(), r.Time()
	n := r.Count(8)
	cards := carve(&arena.cards, n)
	ns.cards = carve(&arena.cardPtrs, n)
	for i := range cards {
		cs := &cards[i]
		cs.serial = gpu.Serial(r.Uint32())
		cs.dbeEvents, cs.sbeInferred = int(r.Int()), int(r.Int())
		cs.counts.RestoreState(r)
		cs.retirement.RestoreState(r)
		cs.lastSeen = r.Time()
		ns.cards[i] = cs
	}
}

// nodeArena hands restored nodes their slices out of shared chunks, so a
// table of thousands of nodes is restored in a few dozen allocations, not
// four a node. Each slice is capped at its length: the first append after
// the restart moves it off the chunk.
type nodeArena struct {
	codes    []codeCount
	window   []windowEntry
	cards    []cardState
	cardPtrs []*cardState
}

// carve takes the next n elements of *chunk, starting a new chunk when
// the current one is short (chunks are never grown: slices of the old one
// stay where they are).
func carve[T any](chunk *[]T, n int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, max(n, 4096))
	}
	at := len(*chunk)
	*chunk = (*chunk)[:at+n]
	return (*chunk)[at : at+n : at+n]
}

// writeCheckpoint persists the derived state at the end of Shutdown,
// when everything applied is sealed (the final seal ran; without
// retention or after a failed seal it is not, and no checkpoint is
// written — the last one stays valid for its prefix) and there is any:
// a daemon that never sealed has no segment directory to write it to,
// and an empty state needs no checkpoint.
func (s *Server) writeCheckpoint() error {
	sealed := s.sealedPeek()
	if sealed == nil {
		return nil
	}
	s.stateMu.Lock()
	cp := checkpoint{
		fingerprint:    checkpointFingerprint(s.cfg),
		segments:       sealed.SegmentIDs(),
		applied:        s.metrics.eventsApplied.Load(),
		alertsRaised:   s.metrics.alertsRaised.Load(),
		warningsIssued: s.metrics.warningsIssued.Load(),
		maxApplied:     s.maxApplied,
		codeTotals:     s.codeTotals,
		nodes:          s.nodes,
		engine:         s.alertEngine,
		warner:         s.warner,
	}
	var data []byte
	if cp.applied == uint64(sealed.EventCount()) && cp.applied > 0 {
		data = cp.append(nil)
	}
	s.stateMu.Unlock()
	if data == nil {
		return nil
	}
	if err := durable.WriteBytes(s.cfg.FS, sealed.Dir(), checkpointFile, data); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint returns the checkpoint in st's directory when it may
// seed a warm start of st, or nil and the reason it may not.
func loadCheckpoint(st *store.Store, rec store.Recovery, cfg Config) (*checkpoint, string) {
	data, err := cfg.FS.ReadFile(filepath.Join(st.Dir(), checkpointFile))
	if os.IsNotExist(err) {
		return nil, "missing"
	}
	if err != nil {
		return nil, err.Error()
	}
	cp, err := decodeCheckpoint(data, cfg)
	if err != nil {
		return nil, err.Error()
	}
	ids, segs := st.SegmentIDs(), st.Segments()
	var covered uint64
	for i, id := range cp.segments {
		switch {
		case slices.Contains(rec.Quarantined, id.Name):
			return nil, fmt.Sprintf("covered segment %s quarantined", id.Name)
		case i >= len(ids) || ids[i].Name != id.Name:
			return nil, fmt.Sprintf("covered segment %s missing", id.Name)
		case ids[i].Digest != id.Digest:
			return nil, fmt.Sprintf("covered segment %s changed", id.Name)
		}
		covered += uint64(segs[i].Len())
	}
	if covered != cp.applied {
		return nil, fmt.Sprintf("covers %d events, its segments hold %d", cp.applied, covered)
	}
	return cp, ""
}

// adoptCheckpoint installs a loaded checkpoint's state as the server's
// own; WarmStart calls it before any event is applied.
func (s *Server) adoptCheckpoint(cp *checkpoint) {
	s.stateMu.Lock()
	s.alertEngine, s.warner = cp.engine, cp.warner
	s.codeTotals, s.nodes, s.maxApplied = cp.codeTotals, cp.nodes, cp.maxApplied
	s.nodesTracked, s.cardsTracked = 0, 0
	for _, ns := range cp.nodes {
		if ns != nil {
			s.nodesTracked++
			s.cardsTracked += len(ns.cards)
		}
	}
	s.stateMu.Unlock()
	s.metrics.eventsApplied.Add(cp.applied)
	s.metrics.alertsRaised.Add(cp.alertsRaised)
	s.metrics.warningsIssued.Add(cp.warningsIssued)
}
