package serve

import (
	"cmp"
	"slices"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Per-node online state.
//
// Every node's reliability state — sliding-window XID rate, per-card
// DBE counts, the page-retirement machine — is one index into a dense
// table (a topology.NodeID is by definition an index in [0, TotalNodes))
// and two short linear searches per event (a node sees a handful of
// codes and one card, rarely two), so the applier folds it inline, under
// the same stateMu as the cross-node detectors, in the one order
// batches were handed off. One goroutine, one order: per-node state is
// deterministic for a given ingest order by construction, and once
// events_applied covers a batch /nodes/{cname} already reflects it.
// Handing events to per-node-shard goroutines instead would cost a
// 130–240 ns channel hop per event — most of the work it parallelises
// (DESIGN §4d has the measurement).

// The table is laid out for the restart as much as for the applier: a
// checkpoint restore (checkpoint.go) fills it from a handful of chunks,
// and every pointer it stores is one the GC must trace and, while a
// collection is marking, pay a write barrier for. So a node is a value
// in the table, its cards are values in its slice, and its times are
// epoch seconds, not time.Time (whose *Location is a pointer): every event
// time the applier sees is a whole second — the console line carries
// "2006-01-02 15:04:05" stamps and the store's time column is epoch
// seconds — so nothing is lost. The one pointer a card holds, its ECC
// state, stays nil on all but the few cards that ever logged a DBE or a
// retirement record.

// windowEntry is one event in a node's sliding rate window.
type windowEntry struct {
	at   int64 // epoch seconds
	code xid.Code
}

// cardState is the per-GPU online state.
type cardState struct {
	serial   gpu.Serial
	lastSeen int64    // epoch seconds
	ecc      *cardECC // nil until the card's first DBE or retirement record
}

// cardECC is a card's console-visible error counters and the dynamic
// page-retirement machine replayed from the stream.
type cardECC struct {
	// dbeEvents counts console DBE incidents; sbeInferred counts the
	// corrected single-bit errors implied by two-SBE retirement records
	// (the console never carries SBEs directly — Observation 2's
	// accounting gap — so the stream can only see the ones that retired
	// a page).
	dbeEvents   int
	sbeInferred int
	// counts books per-structure DBEs the way an InfoROM would.
	counts gpu.ErrorCounts
	// retirement is the same state machine the simulator's cards run,
	// driven here by the console records that surface its transitions.
	retirement gpu.RetirementState
}

// eccState returns cs's ECC state, creating it on first use.
func (cs *cardState) eccState() *cardECC {
	if cs.ecc == nil {
		// The service is online-era by definition: any retirement
		// record it sees comes from a driver with the feature on.
		cs.ecc = &cardECC{retirement: gpu.RetirementState{Enabled: true}}
	}
	return cs.ecc
}

// codeCount is one code's event count on a node.
type codeCount struct {
	code xid.Code
	n    int
}

// nodeState is everything titand knows about one node; a node no event
// has touched has total 0. byCode and cards are in first-seen order;
// viewOf gives them their wire order.
type nodeState struct {
	total               int
	firstSeen, lastSeen int64 // epoch seconds
	byCode              []codeCount
	window              []windowEntry // pruned to the configured rate window
	cards               []cardState
}

// windowSeconds is the rate window in whole seconds, rounded up: with
// event times in whole seconds, an entry at is outside the window ending
// at t — at ≤ t − window — exactly when t − at ≥ windowSeconds(window).
func windowSeconds(window time.Duration) int64 {
	return int64((window + time.Second - 1) / time.Second)
}

// applyNodeLocked folds one event into its node's online state; stateMu
// must be held. nodesTracked/cardsTracked are bumped at first touch so
// /stats never walks the node table.
func (s *Server) applyNodeLocked(ev console.Event) {
	if !ev.Node.Valid() {
		return // no decoder emits one (TestDecodedNodeValid); a forged segment could
	}
	if s.nodes == nil {
		s.nodes = make([]nodeState, topology.TotalNodes)
	}
	ns := &s.nodes[ev.Node]
	at := ev.Time.Unix()
	if ns.total == 0 {
		ns.firstSeen = at
		s.nodesTracked++
	}
	ns.total++
	ci := 0
	for ci < len(ns.byCode) && ns.byCode[ci].code != ev.Code {
		ci++
	}
	if ci == len(ns.byCode) {
		ns.byCode = append(ns.byCode, codeCount{code: ev.Code})
	}
	ns.byCode[ci].n++
	ns.lastSeen = at

	// Sliding rate window, pruned against the newest event time. Pruning
	// by event time (not wall clock) keeps replayed history meaningful at
	// any speedup.
	ns.window = append(ns.window, windowEntry{at: at, code: ev.Code})
	span := windowSeconds(s.cfg.RateWindow)
	trim := 0
	for trim < len(ns.window) && at-ns.window[trim].at >= span {
		trim++
	}
	if trim > 0 {
		ns.window = append(ns.window[:0], ns.window[trim:]...)
	}

	if ev.Serial == 0 {
		return // no card context on the line
	}
	var cs *cardState
	for i := range ns.cards {
		if ns.cards[i].serial == ev.Serial {
			cs = &ns.cards[i]
			break
		}
	}
	if cs == nil {
		ns.cards = append(ns.cards, cardState{serial: ev.Serial})
		cs = &ns.cards[len(ns.cards)-1]
		s.cardsTracked++
	}
	cs.lastSeen = at
	switch ev.Code {
	case xid.DoubleBitError:
		st := gpu.DeviceMemory
		if ev.StructureValid {
			st = ev.Structure
		}
		e := cs.eccState()
		e.dbeEvents++
		e.counts.DoubleBit[st]++
		if st == gpu.DeviceMemory && ev.Page >= 0 {
			e.retirement.RecordDBE(ev.Page)
		}
	case xid.ECCPageRetirement:
		// The driver's DBE-retirement record; the triggering XID 48
		// usually arrived first and already retired the page, in which
		// case this is a no-op on the machine.
		if ev.Page >= 0 {
			cs.eccState().retirement.RecordDBE(ev.Page)
		}
	case xid.ECCPageRetirementAlt:
		// Two corrected SBEs on one page: the console's only window
		// into the SBE stream.
		if ev.Page >= 0 {
			e := cs.eccState()
			e.sbeInferred += 2
			e.retirement.RecordSBE(ev.Page)
			e.retirement.RecordSBE(ev.Page)
		}
	}
}

// ---- JSON views (assembled under stateMu, returned by value) ----

// CardView is the JSON shape of one card's online state.
type CardView struct {
	Serial       string    `json:"serial"`
	DBEEvents    int       `json:"dbe_events"`
	SBEInferred  int       `json:"sbe_inferred"`
	RetiredPages int       `json:"retired_pages"`
	PendingSBE   int       `json:"pending_sbe_pages"`
	Headroom     int       `json:"retirement_headroom"`
	Exhausted    bool      `json:"retirement_exhausted"`
	LastSeen     time.Time `json:"last_seen"`
}

// NodeView is the JSON shape of one node's online state.
type NodeView struct {
	Node        string         `json:"node"`
	Total       int            `json:"events_total"`
	ByCode      map[string]int `json:"events_by_code"`
	WindowCount int            `json:"window_events"`
	WindowHours float64        `json:"window_hours"`
	// RatePerHour is the sliding-window XID rate: window events divided
	// by the window span.
	RatePerHour float64    `json:"rate_per_hour"`
	FirstSeen   time.Time  `json:"first_seen"`
	LastSeen    time.Time  `json:"last_seen"`
	Cards       []CardView `json:"cards"`
}

func viewOf(node topology.NodeID, ns *nodeState, window time.Duration) NodeView {
	v := NodeView{
		Node:        topology.CNameOf(node),
		Total:       ns.total,
		ByCode:      make(map[string]int, len(ns.byCode)),
		WindowCount: len(ns.window),
		WindowHours: window.Hours(),
		FirstSeen:   time.Unix(ns.firstSeen, 0).UTC(),
		LastSeen:    time.Unix(ns.lastSeen, 0).UTC(),
	}
	if window > 0 {
		v.RatePerHour = float64(len(ns.window)) / window.Hours()
	}
	for _, c := range ns.byCode {
		v.ByCode[c.code.String()] = c.n
	}
	cards := slices.Clone(ns.cards)
	slices.SortFunc(cards, func(a, b cardState) int { return cmp.Compare(a.serial, b.serial) })
	for _, cs := range cards {
		var e cardECC // a card with no ECC state has logged and retired nothing
		if cs.ecc != nil {
			e = *cs.ecc
		}
		v.Cards = append(v.Cards, CardView{
			Serial:       cs.serial.String(),
			DBEEvents:    e.dbeEvents,
			SBEInferred:  e.sbeInferred,
			RetiredPages: len(e.retirement.Retired()),
			PendingSBE:   e.retirement.PendingSBEPages(),
			Headroom:     e.retirement.Headroom(),
			Exhausted:    e.retirement.Exhausted(),
			LastSeen:     time.Unix(cs.lastSeen, 0).UTC(),
		})
	}
	return v
}
