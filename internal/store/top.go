package store

import (
	"fmt"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/stats"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Top-K offender cards — the paper's "a handful of cards produce almost
// all the SBEs" lists. A Top is a rowSink like Rollup: fold feeds its
// one addRow kernel from segment columns and tail events; Doc ranks by
// stats.TopOffenders (count descending, key ascending — deterministic).

// TopBy selects the offender dimension.
type TopBy string

const (
	TopByNode   TopBy = "node"
	TopBySerial TopBy = "serial"
	TopByCode   TopBy = "code"
)

// TopSpec describes one offender query. K ≤ 0 means every key. Zero
// times mean unbounded; bounds are inclusive.
type TopSpec struct {
	By TopBy
	K  int

	// FilterCode counts only events carrying Code; folded into the
	// fold's matcher like RollupSpec.FilterCode.
	FilterCode bool
	Code       xid.Code

	Since, Until time.Time
}

func (spec TopSpec) validate() error {
	switch spec.By {
	case TopByNode, TopBySerial, TopByCode:
		return nil
	}
	return fmt.Errorf("store: top-k dimension %q (want node, serial or code)", spec.By)
}

// topAgg accumulates one offender's card.
type topAgg struct {
	count       int64
	first, last int64
	byCode      map[int16]int64
}

// Top accumulates offender counts. ParallelTopAcc (or MergeTopPartials)
// populates it; Doc renders it.
type Top struct {
	spec  TopSpec
	aggs  map[uint64]*topAgg
	total int64
}

// NewTop validates spec and returns an empty accumulator.
func NewTop(spec TopSpec) (*Top, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return newTop(spec), nil
}

// newTop builds the accumulator for an already validated spec.
func newTop(spec TopSpec) *Top {
	return &Top{spec: spec, aggs: make(map[uint64]*topAgg)}
}

// needSerial: only a by=serial ranking reads the serial argument.
func (t *Top) needSerial() bool { return t.spec.By == TopBySerial }

// addRow is the kernel: count one matching row (the matcher already
// applied the spec's code and time filter).
func (t *Top) addRow(sec int64, code int16, node, serial uint32) {
	var key uint64
	switch t.spec.By {
	case TopByNode:
		key = uint64(node)
	case TopBySerial:
		key = uint64(serial)
	case TopByCode:
		key = uint64(uint16(code))
	}
	agg := t.aggs[key]
	if agg == nil {
		agg = &topAgg{first: sec, last: sec}
		if t.spec.By != TopByCode {
			agg.byCode = make(map[int16]int64)
		}
		t.aggs[key] = agg
	}
	agg.count++
	if sec < agg.first {
		agg.first = sec
	}
	if sec > agg.last {
		agg.last = sec
	}
	if agg.byCode != nil {
		agg.byCode[code]++
	}
	t.total++
}

// Merge folds another accumulator built with the same spec into t.
// Counts add, first/last take min/max, per-code breakdowns add — all
// commutative and associative, so per-worker partials merge to the
// identical ranking in any order. o must not be used afterwards (its
// aggregates may be adopted by t).
func (t *Top) Merge(o *Top) {
	for key, oa := range o.aggs {
		agg := t.aggs[key]
		if agg == nil {
			t.aggs[key] = oa
			continue
		}
		agg.count += oa.count
		if oa.first < agg.first {
			agg.first = oa.first
		}
		if oa.last > agg.last {
			agg.last = oa.last
		}
		for code, n := range oa.byCode {
			agg.byCode[code] += n
		}
	}
	t.total += o.total
}

// TopCard is one rendered offender.
type TopCard struct {
	Node      string           `json:"node,omitempty"`
	Serial    string           `json:"serial,omitempty"`
	Code      string           `json:"code,omitempty"`
	Count     int64            `json:"count"`
	FirstSeen time.Time        `json:"first_seen"`
	LastSeen  time.Time        `json:"last_seen"`
	ByCode    map[string]int64 `json:"by_code,omitempty"`
}

// TopDoc is the rendered ranking.
type TopDoc struct {
	By          string    `json:"by"`
	K           int       `json:"k"`
	Code        string    `json:"code,omitempty"`
	TotalEvents int64     `json:"total_events"`
	Cards       []TopCard `json:"cards"`
}

// Doc ranks the accumulated offenders and renders the top K cards.
func (t *Top) Doc() TopDoc {
	counts := make(map[uint64]int64, len(t.aggs))
	for key, agg := range t.aggs {
		counts[key] = agg.count
	}
	k := t.spec.K
	if k <= 0 {
		k = len(counts)
	}
	doc := TopDoc{
		By:          string(t.spec.By),
		K:           k,
		TotalEvents: t.total,
		Cards:       make([]TopCard, 0, k),
	}
	if t.spec.FilterCode {
		doc.Code = t.spec.Code.String()
	}
	for _, kc := range stats.TopOffenders(counts, k) {
		agg := t.aggs[kc.Key]
		card := TopCard{
			Count:     agg.count,
			FirstSeen: time.Unix(agg.first, 0).UTC(),
			LastSeen:  time.Unix(agg.last, 0).UTC(),
		}
		switch t.spec.By {
		case TopByNode:
			card.Node = topology.CNameOf(topology.NodeID(kc.Key))
		case TopBySerial:
			card.Serial = gpu.Serial(kc.Key).String()
		case TopByCode:
			card.Code = xid.Code(int16(kc.Key)).String()
		}
		if agg.byCode != nil {
			card.ByCode = make(map[string]int64, len(agg.byCode))
			for code, n := range agg.byCode {
				card.ByCode[xid.Code(code).String()] = n
			}
		}
		doc.Cards = append(doc.Cards, card)
	}
	return doc
}

// TopEvents computes the identical ranking from materialized events
// alone — the batch reference (see RollupEvents).
func TopEvents(events []console.Event, spec TopSpec) (TopDoc, error) {
	t, err := NewTop(spec)
	if err != nil {
		return TopDoc{}, err
	}
	scanEvents(events, narrow(nil, spec.FilterCode, spec.Code, spec.Since, spec.Until), t)
	return t.Doc(), nil
}
