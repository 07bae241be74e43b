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

// windowEntry is one event in a node's sliding rate window.
type windowEntry struct {
	at   time.Time
	code xid.Code
}

// cardState is the per-GPU online state: console-visible error counters
// and the dynamic page-retirement machine replayed from the stream.
type cardState struct {
	serial gpu.Serial
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
	lastSeen   time.Time
}

// codeCount is one code's event count on a node.
type codeCount struct {
	code xid.Code
	n    int
}

// nodeState is everything titand knows about one node. byCode and cards
// are in first-seen order; viewOf gives them their wire order.
type nodeState struct {
	node      topology.NodeID
	total     int
	byCode    []codeCount
	window    []windowEntry // pruned to the configured rate window
	firstSeen time.Time
	lastSeen  time.Time
	cards     []*cardState
}

// applyNodeLocked folds one event into its node's online state; stateMu
// must be held. nodesTracked/cardsTracked are bumped at first touch so
// /stats never walks the node table.
func (s *Server) applyNodeLocked(ev console.Event) {
	if !ev.Node.Valid() {
		return // no decoder emits one (TestDecodedNodeValid); a forged segment could
	}
	ns := s.nodes[ev.Node]
	if ns == nil {
		ns = &nodeState{node: ev.Node, firstSeen: ev.Time}
		s.nodes[ev.Node] = ns
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
	ns.lastSeen = ev.Time

	// Sliding rate window, pruned against the newest event time. Pruning
	// by event time (not wall clock) keeps replayed history meaningful at
	// any speedup.
	ns.window = append(ns.window, windowEntry{at: ev.Time, code: ev.Code})
	cutoff := ev.Time.Add(-s.cfg.RateWindow)
	trim := 0
	for trim < len(ns.window) && !ns.window[trim].at.After(cutoff) {
		trim++
	}
	if trim > 0 {
		ns.window = append(ns.window[:0], ns.window[trim:]...)
	}

	if ev.Serial == 0 {
		return // no card context on the line
	}
	var cs *cardState
	for _, c := range ns.cards {
		if c.serial == ev.Serial {
			cs = c
			break
		}
	}
	if cs == nil {
		cs = &cardState{serial: ev.Serial}
		// The service is online-era by definition: any retirement
		// record it sees comes from a driver with the feature on.
		cs.retirement.Enabled = true
		ns.cards = append(ns.cards, cs)
		s.cardsTracked++
	}
	cs.lastSeen = ev.Time
	switch ev.Code {
	case xid.DoubleBitError:
		cs.dbeEvents++
		st := gpu.DeviceMemory
		if ev.StructureValid {
			st = ev.Structure
		}
		cs.counts.DoubleBit[st]++
		if st == gpu.DeviceMemory && ev.Page >= 0 {
			cs.retirement.RecordDBE(ev.Page)
		}
	case xid.ECCPageRetirement:
		// The driver's DBE-retirement record; the triggering XID 48
		// usually arrived first and already retired the page, in which
		// case this is a no-op on the machine.
		if ev.Page >= 0 {
			cs.retirement.RecordDBE(ev.Page)
		}
	case xid.ECCPageRetirementAlt:
		// Two corrected SBEs on one page: the console's only window
		// into the SBE stream.
		if ev.Page >= 0 {
			cs.sbeInferred += 2
			cs.retirement.RecordSBE(ev.Page)
			cs.retirement.RecordSBE(ev.Page)
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

func viewOf(ns *nodeState, window time.Duration) NodeView {
	v := NodeView{
		Node:        topology.CNameOf(ns.node),
		Total:       ns.total,
		ByCode:      make(map[string]int, len(ns.byCode)),
		WindowCount: len(ns.window),
		WindowHours: window.Hours(),
		FirstSeen:   ns.firstSeen,
		LastSeen:    ns.lastSeen,
	}
	if window > 0 {
		v.RatePerHour = float64(len(ns.window)) / window.Hours()
	}
	for _, c := range ns.byCode {
		v.ByCode[c.code.String()] = c.n
	}
	cards := slices.Clone(ns.cards)
	slices.SortFunc(cards, func(a, b *cardState) int { return cmp.Compare(a.serial, b.serial) })
	for _, cs := range cards {
		v.Cards = append(v.Cards, CardView{
			Serial:       cs.serial.String(),
			DBEEvents:    cs.dbeEvents,
			SBEInferred:  cs.sbeInferred,
			RetiredPages: len(cs.retirement.Retired()),
			PendingSBE:   cs.retirement.PendingSBEPages(),
			Headroom:     cs.retirement.Headroom(),
			Exhausted:    cs.retirement.Exhausted(),
			LastSeen:     cs.lastSeen,
		})
	}
	return v
}
