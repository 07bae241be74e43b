package store

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"titanre/internal/jsonw"
	"titanre/internal/topology"
)

// Raw partial aggregates — the cross-replica face of the Merge kernels.
//
// A rendered RollupDoc or TopDoc cannot be merged: rendering collapses
// the numeric keys into display strings and (for Top) truncates to K.
// When a router fans a query out to N replicas, each replica must
// instead return its accumulator's raw cells, and the router merges
// those with the same commutative/associative kernel the
// segment-parallel executor uses — replicas and segments are the same
// merge problem. RollupPartial and TopPartial are that wire shape:
// numeric, canonically sorted, JSON-round-trippable, and convertible
// back into an accumulator whose Doc() is byte-identical to a single
// store that held all the rows.

// RollupPartialCell is one raw rollup cell: the group-by coordinates
// exactly as the accumulator keys them, plus the count.
type RollupPartialCell struct {
	Bucket int64 `json:"bucket"`
	Code   int16 `json:"code,omitempty"`
	Cab    int16 `json:"cab,omitempty"`
	Cage   int8  `json:"cage,omitempty"`
	Node   int32 `json:"node,omitempty"`
	Count  int64 `json:"count"`
}

// RollupPartial is a Rollup accumulator in wire form.
type RollupPartial struct {
	Spec  RollupSpec          `json:"spec"`
	Total int64               `json:"total"`
	Cells []RollupPartialCell `json:"cells"`
}

// pack is the inverse of Partial's unpacking, for cells arriving off the
// wire: a cell grouped by node names it, any other the first node of its
// cabinet and cage.
func (r *Rollup) pack(c RollupPartialCell) uint64 {
	key, _ := r.bucketKey(c.Bucket)
	key |= r.code(uint16(c.Code))
	node := uint64(c.Node)
	if !r.spec.ByNode {
		node = uint64(c.Cab)*topology.NodesPerCabinet + uint64(c.Cage)*topology.NodesPerCage
	}
	return key | r.spec.loc(node)
}

// Partial exports the accumulator's raw cells in canonical (bucket,
// code, cabinet, cage, node) order: ascending packed key.
func (r *Rollup) Partial() RollupPartial {
	return RollupPartial{Spec: r.spec, Total: r.total, Cells: r.unpack(r.order(0))}
}

// unpack spells the cells behind packed keys out, in the order given
// (never nil: an empty partial's cells render []).
func (r *Rollup) unpack(ordered []cell) []RollupPartialCell {
	cells := make([]RollupPartialCell, len(ordered))
	for i, oc := range ordered {
		c := &cells[i]
		c.Bucket, c.Code = r.bucketCode(oc.Key)
		c.Count = oc.Count
		cab, cage, node := r.unloc(oc.Key & locMask)
		if r.spec.ByCabinet {
			c.Cab = int16(cab)
		}
		if r.spec.ByCage {
			c.Cage = int8(cage)
		}
		if r.spec.ByNode {
			c.Node = int32(node)
		}
	}
	return cells
}

// MergeRollupPartials folds partials from replicas (or any other
// disjoint row owners) back into one accumulator. All partials must
// carry the same spec; the merged accumulator's Doc() is byte-identical
// to a single accumulator fed every underlying row, in any order. Each
// partial's cells, canonically ordered on the wire, become an ordered
// cell list as they are read (a cell out of order is a late one) and
// merge into the root's in one linear pass.
func MergeRollupPartials(parts []RollupPartial) (*Rollup, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("store: merge rollup: no partials")
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].Spec != parts[0].Spec {
			return nil, fmt.Errorf("store: merge rollup: partial %d spec differs", i)
		}
	}
	root, err := NewRollup(parts[0].Spec)
	if err != nil {
		return nil, err
	}
	part := newRollup(parts[0].Spec)
	defer part.Release()
	for _, p := range parts {
		part.cells = part.cells[:0]
		for _, c := range p.Cells {
			part.addCell(part.pack(c), c.Count)
		}
		part.total = p.Total
		root.Merge(part)
	}
	return root, nil
}

// addCell counts n into the cell key: appended to the ordered cells when
// it sorts after them all, else a late cell.
func (r *Rollup) addCell(key uint64, n int64) {
	switch last := len(r.cells) - 1; {
	case last < 0 || key > r.cells[last].Key:
		r.cells = append(r.cells, cell{Key: key, Count: n})
	case key == r.cells[last].Key:
		r.cells[last].Count += n
	default:
		r.addLate(key, n)
	}
}

// TopPartialAgg is one raw offender aggregate.
type TopPartialAgg struct {
	Key    uint64          `json:"key"`
	Count  int64           `json:"count"`
	First  int64           `json:"first"`
	Last   int64           `json:"last"`
	ByCode map[int16]int64 `json:"by_code,omitempty"`
}

// TopPartial is a Top accumulator in wire form. Unlike TopDoc it
// carries every key, not the top K — ranking truncation is only valid
// after the global merge.
type TopPartial struct {
	Spec  TopSpec         `json:"spec"`
	Total int64           `json:"total"`
	Aggs  []TopPartialAgg `json:"aggs"`
}

// Partial exports the accumulator's raw aggregates, sorted by key. A
// count-first fold kept only its winners and has no partial: the caller
// that exports one must fold with everyKey.
func (t *Top) Partial() TopPartial {
	if t.winners {
		panic("store: Partial of a count-first Top (fold with everyKey)")
	}
	p := TopPartial{Spec: t.spec, Total: t.total, Aggs: make([]TopPartialAgg, len(t.keys.keys))}
	for slot, key := range t.keys.keys {
		row := t.row(slot)
		pa := TopPartialAgg{Key: key, Count: row[topCount], First: row[topFirst], Last: row[topLast]}
		t.eachCode(slot, func(code int16, n int64) {
			if pa.ByCode == nil {
				pa.ByCode = make(map[int16]int64)
			}
			pa.ByCode[code] = n
		})
		p.Aggs[slot] = pa
	}
	slices.SortFunc(p.Aggs, func(a, b TopPartialAgg) int { return cmp.Compare(a.Key, b.Key) })
	return p
}

// AppendJSON renders the partial as encoding/json would (see
// RollupPartial.AppendJSON).
func (p TopPartial) AppendJSON(dst []byte) []byte { return jsonw.Append(dst, p) }

// WriteJSON writes the partial as one value (see RollupDoc.WriteJSON).
func (p TopPartial) WriteJSON(w *jsonw.W) {
	w.Obj()
	w.Key("spec").Any(p.Spec)
	w.Key("total").Int(p.Total)
	w.Key("aggs").Arr()
	var codes []int16
	for i := range p.Aggs {
		a := &p.Aggs[i]
		w.Obj()
		w.Key("key").Uint(a.Key)
		w.Key("count").Int(a.Count)
		w.Key("first").Int(a.First)
		w.Key("last").Int(a.Last)
		codes = writeByCode(w, a.ByCode, codes, func(c int16) string { return strconv.Itoa(int(c)) })
		w.EndObj()
	}
	w.EndArr()
	w.EndObj()
}

// writeByCode renders a non-empty per-code breakdown as the by_code
// member, keys in encoding/json's map order: sorted as the strings they
// are written as. keys is scratch, returned for the next card.
func writeByCode[K comparable](w *jsonw.W, m map[K]int64, keys []K, name func(K) string) []K {
	if len(m) == 0 {
		return keys
	}
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int { return strings.Compare(name(a), name(b)) })
	w.Key("by_code").Obj()
	for _, k := range keys {
		w.Key(name(k)).Int(m[k])
	}
	w.EndObj()
	return keys
}

// MergeTopPartials folds per-replica offender partials back into one
// accumulator (same contract as MergeRollupPartials).
func MergeTopPartials(parts []TopPartial) (*Top, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("store: merge top: no partials")
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].Spec != parts[0].Spec {
			return nil, fmt.Errorf("store: merge top: partial %d spec differs", i)
		}
	}
	root, err := NewTop(parts[0].Spec)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		for _, pa := range p.Aggs {
			slot := root.merge(pa.Key, pa.Count, pa.First, pa.Last)
			for code, n := range pa.ByCode {
				root.addCode(slot, code, n)
			}
		}
		root.total += p.Total
	}
	return root, nil
}
