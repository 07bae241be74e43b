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
// fingerprint, so a daemon never reads another version's state (a file
// of an older one is "fingerprint differs", and the restart replays).
// Version 2 writes node times as epoch seconds, relative to the node's
// last event, and a card with no ECC state in four fixed bytes.
const checkpointVersion = 2

var checkpointMagic = [8]byte{'T', 'I', 'T', 'A', 'N', 'C', 'K', 'P'}

// checkpoint is the derived state a checkpoint file carries, with what
// it covers. Encoding walks it, decoding builds one.
type checkpoint struct {
	fingerprint [sha256.Size]byte
	segments    []store.SegmentID

	applied, alertsRaised, warningsIssued uint64
	derived
}

// derived is the state the apply step derives from the history —
// applyEventLocked is its only writer — and so what a checkpoint
// carries: the cross-node detectors, the per-code totals, the age
// watermark and the per-node table (state.go) with its first-touch node
// and card counts.
type derived struct {
	alertEngine  *alert.Engine
	warner       *predict.Warner // nil without a model
	codeTotals   map[xid.Code]int
	nodes        []nodeState // indexed by topology.NodeID; nil until the first event or a restore
	nodesTracked int
	cardsTracked int
	// maxApplied is the newest event time applied so far; compaction
	// measures CompactAge against it so historical replays age out the
	// same way live streams do.
	maxApplied time.Time
}

// newDerived is the derived state of no history.
func newDerived(cfg Config) derived {
	d := derived{alertEngine: alert.NewEngine(cfg.Alerts), codeTotals: make(map[xid.Code]int)}
	if cfg.Model != nil {
		d.warner = predict.NewWarner(cfg.Model)
	}
	return d
}

// checkpointFingerprint digests everything besides the history that
// shapes the derived state.
func checkpointFingerprint(cfg Config) [sha256.Size]byte {
	b := bincode.AppendUint(nil, checkpointVersion)
	b = cfg.Alerts.AppendFingerprint(bincode.AppendInt(b, int64(cfg.RateWindow)))
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
	prev := -1
	for i := range cp.nodes {
		if cp.nodes[i].total > 0 {
			b = cp.nodes[i].appendState(bincode.AppendUint(b, uint64(i-prev)))
			prev = i
		}
	}
	b = append(b, 0)
	b = cp.alertEngine.AppendState(b)
	if cp.warner != nil {
		b = cp.warner.AppendState(b)
	}
	digest := sha256.Sum256(b[start:])
	return append(b, digest[:]...)
}

// noECC is how a card with no ECC state encodes: no DBE or inferred SBE,
// no counter set, and an enabled retirement machine with nothing pending
// or retired.
var noECC = []byte{0, 0, 0, 1, 0, 0}

// appendState encodes a node's state after its id (the gap from the
// previous node's, so never 0: a 0 ends the table): its event total and
// last event time, then the rest of its times as offsets back from that
// one (short varints, where epoch seconds take five bytes), its codes,
// rate window and cards, each list in the order the node holds it.
func (ns *nodeState) appendState(b []byte) []byte {
	b = bincode.AppendUint(b, uint64(ns.total))
	b = bincode.AppendInt(b, ns.lastSeen)
	b = bincode.AppendInt(b, ns.lastSeen-ns.firstSeen)
	b = bincode.AppendUint(b, uint64(len(ns.byCode)))
	for _, c := range ns.byCode {
		b = bincode.AppendUint(bincode.AppendInt(b, int64(c.code)), uint64(c.n))
	}
	b = bincode.AppendUint(b, uint64(len(ns.window)))
	for _, w := range ns.window {
		b = bincode.AppendInt(bincode.AppendInt(b, ns.lastSeen-w.at), int64(w.code))
	}
	b = bincode.AppendUint(b, uint64(len(ns.cards)))
	for _, cs := range ns.cards {
		b = bincode.AppendInt(bincode.AppendUint(b, uint64(cs.serial)), ns.lastSeen-cs.lastSeen)
		if e := cs.ecc; e == nil {
			b = append(b, noECC...)
		} else {
			b = bincode.AppendUint(bincode.AppendUint(b, uint64(e.dbeEvents)), uint64(e.sbeInferred))
			b = e.retirement.AppendState(e.counts.AppendState(b))
		}
	}
	return b
}

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
	cp := &checkpoint{fingerprint: [sha256.Size]byte(body[len(checkpointMagic):]), derived: newDerived(cfg)}
	if cp.fingerprint != checkpointFingerprint(cfg) {
		return nil, errors.New("fingerprint differs") // another rate window, alert config, model or format
	}
	r := bincode.NewReader(body[len(checkpointMagic)+sha256.Size:])
	for n := r.Count(1 + sha256.Size); n > 0 && r.Err() == nil; n-- {
		id := store.SegmentID{Name: r.String()}
		copy(id.Digest[:], r.Bytes(sha256.Size))
		cp.segments = append(cp.segments, id)
	}
	cp.applied, cp.alertsRaised, cp.warningsIssued = r.Uint(), r.Uint(), r.Uint()
	cp.maxApplied = r.Time()
	cp.codeTotals = bincode.ReadMap(r, func(r *bincode.Reader) xid.Code { return xid.Code(r.Int()) }, func(r *bincode.Reader) int { return int(r.Int()) })
	cp.nodes, cp.nodesTracked, cp.cardsTracked = restoreNodes(r, windowSeconds(cfg.RateWindow))
	cp.alertEngine.RestoreState(r)
	if cp.warner != nil {
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

// restoreNodes decodes the node table and returns it with how many nodes
// and cards it holds. Besides the shape of each record it checks that the
// apply step could have left it: a node has events, and its total is the
// sum of its code counts, each code listed once with a count of at
// least one; its window holds at least one event and at most its total,
// and its oldest entry is inside the rate window of span seconds ending
// at the node's last event (later ones may not be — an event that
// arrived out of order is pruned only once every entry before it has
// been); its cards have distinct non-zero serials and an enabled
// retirement machine.
func restoreNodes(r *bincode.Reader, span int64) (table []nodeState, nodes, cards int) {
	table = make([]nodeState, topology.TotalNodes)
	var arena nodeArena
	for next := uint64(0); r.Err() == nil; nodes++ { // next: the first id the gap counts from
		gap := r.Uint()
		if gap == 0 {
			return table, nodes, cards
		}
		if gap > topology.TotalNodes-next {
			r.Fail("node %d out of range", next+gap-1)
			return
		}
		node := next + gap - 1
		next = node + 1
		ns := &table[node]
		total := r.Uint()
		ns.total, ns.lastSeen = int(total), r.Int()
		ns.firstSeen = ns.lastSeen - r.Int()
		ns.byCode = carve(&arena.codes, r.Count(2))
		for i := range ns.byCode {
			c := &ns.byCode[i]
			c.code, c.n = xid.Code(r.Int()), int(r.Uint())
			total -= uint64(c.n)
			if c.n == 0 || slices.ContainsFunc(ns.byCode[:i], func(o codeCount) bool { return o.code == c.code }) {
				r.Fail("node %d: code %d listed twice or with no event", node, c.code)
			}
		}
		ns.window = carve(&arena.window, r.Count(2))
		if total != 0 || len(ns.window) == 0 || len(ns.window) > ns.total {
			r.Fail("node %d: %d events, %d more than its codes count, %d in its window", node, ns.total, total, len(ns.window))
			return
		}
		for i := range ns.window {
			ns.window[i] = windowEntry{at: ns.lastSeen - r.Int(), code: xid.Code(r.Int())}
		}
		if ns.lastSeen-ns.window[0].at >= span {
			r.Fail("node %d: window starts outside the rate window", node)
		}
		ns.cards = carve(&arena.cards, r.Count(8))
		cards += len(ns.cards)
		for i := range ns.cards {
			cs := &ns.cards[i]
			cs.serial, cs.lastSeen = gpu.Serial(r.Uint32()), ns.lastSeen-r.Int()
			if cs.serial == 0 || slices.ContainsFunc(ns.cards[:i], func(o cardState) bool { return o.serial == cs.serial }) {
				r.Fail("node %d: serial %d zero or listed twice", node, cs.serial)
			}
			if bytes.HasPrefix(r.Rest(), noECC) {
				r.Bytes(len(noECC))
				continue
			}
			e := &cardECC{dbeEvents: int(r.Uint()), sbeInferred: int(r.Uint())}
			e.counts.RestoreState(r)
			if e.retirement.RestoreState(r); !e.retirement.Enabled {
				r.Fail("node %d: card %d retirement disabled", node, cs.serial)
			}
			cs.ecc = e
		}
	}
	return
}

// nodeArena hands restored nodes their slices out of shared chunks, so a
// table of thousands of nodes is restored in a few dozen allocations, not
// four a node. Each slice is capped at its length: the first append after
// the restart moves it off the chunk.
type nodeArena struct {
	codes  []codeCount
	window []windowEntry
	cards  []cardState
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
	sealed := s.SealedStore()
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
		derived:        s.derived,
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
	s.derived = cp.derived
	s.stateMu.Unlock()
	s.metrics.eventsApplied.Add(cp.applied)
	s.metrics.alertsRaised.Add(cp.alertsRaised)
	s.metrics.warningsIssued.Add(cp.warningsIssued)
}
