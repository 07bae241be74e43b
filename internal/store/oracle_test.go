package store

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/race"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// The oracle: the row-at-a-time Go-map kernels the block kernels
// replaced, kept here — sharing nothing with slotTable, block packing or
// stats.RankOffenders — so addRows is held to an independent answer
// rather than to itself (RollupEvents/TopEvents run the new kernel too).

type oracleKey struct {
	bucket int64
	code   int16
	cab    int16
	cage   int8
	node   int32
}

func (a oracleKey) less(b oracleKey) bool {
	switch {
	case a.bucket != b.bucket:
		return a.bucket < b.bucket
	case a.code != b.code:
		return a.code < b.code
	case a.cab != b.cab:
		return a.cab < b.cab
	case a.cage != b.cage:
		return a.cage < b.cage
	}
	return a.node < b.node
}

// oracleRollup folds events into sorted raw cells, one map update a row.
func oracleRollup(events []console.Event, spec RollupSpec) RollupPartial {
	bs := int64(spec.Bucket / time.Second)
	cells := make(map[oracleKey]int64)
	for _, e := range events {
		sec, node := e.Time.Unix(), uint32(e.Node)
		bucket := sec / bs
		if sec < 0 && sec%bs != 0 {
			bucket--
		}
		key := oracleKey{bucket: bucket * bs}
		if spec.ByCode {
			key.code = int16(e.Code)
		}
		if spec.ByCabinet {
			key.cab = int16(node / topology.NodesPerCabinet)
		}
		if spec.ByCage {
			key.cage = int8(node / topology.NodesPerCage % topology.CagesPerCabinet)
		}
		if spec.ByNode {
			key.node = int32(node)
		}
		cells[key]++
	}
	keys := make([]oracleKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	p := RollupPartial{Spec: spec, Total: int64(len(events)), Cells: make([]RollupPartialCell, 0, len(keys))}
	for _, k := range keys {
		p.Cells = append(p.Cells, RollupPartialCell{Bucket: k.bucket, Code: k.code, Cab: k.cab, Cage: k.cage, Node: k.node, Count: cells[k]})
	}
	return p
}

// oracleRollupDoc renders oracle cells the way Rollup.Doc must.
func oracleRollupDoc(p RollupPartial) RollupDoc {
	spec := p.Spec
	doc := RollupDoc{By: []string{}, BucketSeconds: int64(spec.Bucket / time.Second), TotalEvents: p.Total, Cells: []RollupCell{}}
	for _, d := range []struct {
		on   bool
		name string
	}{{spec.ByCode, "code"}, {spec.ByCabinet, "cabinet"}, {spec.ByCage, "cage"}, {spec.ByNode, "node"}} {
		if d.on {
			doc.By = append(doc.By, d.name)
		}
	}
	for _, c := range p.Cells {
		cell := RollupCell{Bucket: time.Unix(c.Bucket, 0).UTC(), Count: c.Count}
		if spec.ByCode {
			cell.Code = xid.Code(c.Code).String()
		}
		if spec.ByCabinet {
			cab := int(c.Cab)
			cell.Cabinet = &cab
		}
		if spec.ByCage {
			cage := int(c.Cage)
			cell.Cage = &cage
		}
		if spec.ByNode {
			cell.Node = topology.CNameOf(topology.NodeID(c.Node))
		}
		doc.Cells = append(doc.Cells, cell)
	}
	return doc
}

// oracleTop folds events into raw aggregates sorted by key: a heap
// aggregate and a per-code map for every key.
func oracleTop(events []console.Event, spec TopSpec) TopPartial {
	aggs := make(map[uint64]*TopPartialAgg)
	for _, e := range events {
		sec, code := e.Time.Unix(), int16(e.Code)
		key := uint64(uint32(e.Node))
		switch spec.By {
		case TopBySerial:
			key = uint64(uint32(e.Serial))
		case TopByCode:
			key = uint64(uint16(code))
		}
		agg := aggs[key]
		if agg == nil {
			agg = &TopPartialAgg{Key: key, First: sec, Last: sec}
			if spec.By != TopByCode {
				agg.ByCode = make(map[int16]int64)
			}
			aggs[key] = agg
		}
		agg.Count++
		agg.First, agg.Last = min(agg.First, sec), max(agg.Last, sec)
		if agg.ByCode != nil {
			agg.ByCode[code]++
		}
	}
	p := TopPartial{Spec: spec, Total: int64(len(events)), Aggs: make([]TopPartialAgg, 0, len(aggs))}
	for _, agg := range aggs {
		p.Aggs = append(p.Aggs, *agg)
	}
	sort.Slice(p.Aggs, func(i, j int) bool { return p.Aggs[i].Key < p.Aggs[j].Key })
	return p
}

// oracleTopDoc ranks every aggregate with a full sort and renders K.
func oracleTopDoc(p TopPartial) TopDoc {
	ranked := append([]TopPartialAgg(nil), p.Aggs...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Count != ranked[j].Count {
			return ranked[i].Count > ranked[j].Count
		}
		return ranked[i].Key < ranked[j].Key
	})
	k := p.Spec.K
	if k <= 0 {
		k = len(ranked)
	}
	doc := TopDoc{By: string(p.Spec.By), K: k, TotalEvents: p.Total, Cards: []TopCard{}}
	for _, agg := range ranked[:min(k, len(ranked))] {
		card := TopCard{Count: agg.Count, FirstSeen: time.Unix(agg.First, 0).UTC(), LastSeen: time.Unix(agg.Last, 0).UTC()}
		switch p.Spec.By {
		case TopByNode:
			card.Node = topology.CNameOf(topology.NodeID(agg.Key))
		case TopBySerial:
			card.Serial = gpu.Serial(agg.Key).String()
		case TopByCode:
			card.Code = xid.Code(int16(agg.Key)).String()
		}
		if agg.ByCode != nil {
			card.ByCode = make(map[string]int64)
			for code, n := range agg.ByCode {
				card.ByCode[xid.Code(code).String()] = n
			}
		}
		doc.Cards = append(doc.Cards, card)
	}
	return doc
}

// adversarialEvents is a stream built to break a block kernel's
// shortcuts: times that straddle the epoch and jump backwards inside one
// segment (a row of a closed bucket is a late cell; floor, not truncate),
// the int16-extreme codes, more distinct codes than a Top row has
// columns to start with (twice over: two re-strides), nodes in every
// cage of both ends of the machine, several serials on one node, and
// runs of identical rows (the last-key memo).
func adversarialEvents() []console.Event {
	codes := []xid.Code{math.MinInt16, math.MaxInt16, -2, -1, 0, 13, 31, 43, 48}
	for c := xid.Code(100); c < 112; c++ {
		codes = append(codes, c) // 21 distinct: past stride 8 and 16
	}
	nodes := []topology.NodeID{0, 1, 31, 32, 64, 95, 96, 97, 130, 9599, 9600, topology.TotalNodes - 97, topology.TotalNodes - 1}
	var events []console.Event
	state := uint64(7)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(n))
	}
	base := int64(-3 * 86400)
	for i := 0; i < 6000; i++ {
		sec := base + int64(i)*97
		switch next(8) {
		case 0:
			sec -= int64(next(5 * 86400)) // jump back, often across the epoch
		case 1:
			sec = int64(next(3)) - 1 // -1, 0, 1
		}
		e := console.Event{
			Time:   time.Unix(sec, 0).UTC(),
			Node:   nodes[next(len(nodes))],
			Code:   codes[next(len(codes))],
			Serial: gpu.Serial(1000 + next(3)),
			Page:   console.NoPage,
		}
		events = append(events, e)
		for r := next(4); r > 2; r-- {
			events = append(events, e)
		}
	}
	return events
}

// sortedEvents is adversarialEvents in time order (a stable sort, so
// rows of one second keep their order) with rows tied on bucket edges
// added: three rows at each of several multiples of the oracle specs'
// bucket widths, one second either side of them — the rows a bucket-run
// search must split exactly — and a run of a hundred rows in one second.
func sortedEvents() []console.Event {
	events := adversarialEvents()
	add := func(sec int64, node topology.NodeID, code xid.Code) {
		events = append(events, console.Event{Time: time.Unix(sec, 0).UTC(), Node: node, Code: code, Serial: 1000, Page: console.NoPage})
	}
	for _, edge := range []int64{-86400, -21600, -3600, 0, 97 * 400, 21600, 3 * 86400} {
		for i, d := range []int64{-1, 0, 0, 0, 1} {
			add(edge+d, topology.NodeID(97*i), xid.Code(13+i%2))
		}
	}
	for i := 0; i < 100; i++ {
		add(7200, topology.NodeID(i*190), xid.Code(31+i%3))
	}
	slices.SortStableFunc(events, func(a, b console.Event) int { return a.Time.Compare(b.Time) })
	return events
}

func sealChunks(t *testing.T, events []console.Event, chunk int) []*Segment {
	t.Helper()
	var segs []*Segment
	for lo := 0; lo < len(events); lo += chunk {
		b := NewBuilder(chunk)
		for _, e := range events[lo:min(lo+chunk, len(events))] {
			if err := b.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	return segs
}

func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("%s diverges from the map oracle\ngot:  %.2000s\nwant: %.2000s", what, gj, wj)
	}
}

// oracleCases runs check over every way rows reach an accumulator: all
// sealed (matchAll), sealed under a matcher that picks rows out
// (matchSome, with whole segments ruled out too), all tail, and a
// sealed/tail split across several workers. kept is what the oracle
// folds: the events the matcher keeps, by MatchEvent alone.
func oracleCases(t *testing.T, check func(name string, segs []*Segment, tail, kept []console.Event, m *Matcher, workers int)) {
	events := adversarialEvents()
	segs := sealChunks(t, events, 1500) // not a multiple of blockRows: short last blocks
	check("matchAll", segs, nil, events, nil, 1)
	check("tail", nil, events, events, nil, 1)
	cut := 4 * 1500
	check("split/3 workers", segs[:4], events[cut:], events, nil, 3)

	// Time-sorted segments, whose bucket runs a rollup finds by binary
	// search: every one sorted, then one of them sorted but for one row
	// moved back an hour, which sends it down the row-by-row path.
	sorted := sortedEvents()
	sortedSegs := sealChunks(t, sorted, 1500)
	for i, seg := range sortedSegs {
		if !seg.timeSorted() {
			t.Fatalf("sorted fixture: segment %d is not time-sorted", i)
		}
	}
	check("sorted", sortedSegs, nil, sorted, nil, 1)
	check("sorted/split/3 workers", sortedSegs[:4], sorted[cut:], sorted, nil, 3)
	oneOut := slices.Clone(sorted)
	oneOut[2*1500+700].Time = oneOut[2*1500+700].Time.Add(-time.Hour)
	oneOutSegs := sealChunks(t, oneOut, 1500)
	for i, seg := range oneOutSegs {
		if seg.timeSorted() != (i != 2) {
			t.Fatalf("one-out fixture: segment %d time-sorted %v", i, seg.timeSorted())
		}
	}
	check("sorted but one row", oneOutSegs, nil, oneOut, nil, 1)
	check("sorted but one row/split/2 workers", oneOutSegs[:4], oneOut[cut:], oneOut, nil, 2)

	for name, p := range map[string]Predicate{
		"matchSome/not-codes": {NotCodes: []xid.Code{13, math.MaxInt16}, Cage: -1},
		"matchSome/cage":      {Cage: 1},
		"matchSome/window":    {Cage: -1, Since: time.Unix(-86400, 0), Until: time.Unix(2*86400, 0)},
		"matchSome/codes":     {Codes: []xid.Code{math.MinInt16, 104, 48}, Cage: -1},
	} {
		m, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var kept []console.Event
		for _, e := range events {
			if m.MatchEvent(e) {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 || len(kept) == len(events) {
			t.Fatalf("%s keeps %d of %d events; wanted a strict subset", name, len(kept), len(events))
		}
		check(name, segs, nil, kept, m, 1)
		check(name+"/split", segs[:4], events[cut:], kept, m, 2)
		kept = kept[:0]
		for _, e := range sorted {
			if m.MatchEvent(e) {
				kept = append(kept, e)
			}
		}
		check(name+"/sorted", sortedSegs, nil, kept, m, 2)
	}
}

// TestRollupMatchesMapOracle: the block kernel, its Merge and its wire
// round trip answer exactly like the map kernel, for every combination
// of dimensions and for buckets from one second to wider than the whole
// stream.
func TestRollupMatchesMapOracle(t *testing.T) {
	var specs []RollupSpec
	for dims := 0; dims < 16; dims++ {
		specs = append(specs, RollupSpec{ByCode: dims&1 != 0, ByCabinet: dims&2 != 0, ByCage: dims&4 != 0, ByNode: dims&8 != 0, Bucket: 6 * time.Hour})
	}
	specs = append(specs,
		RollupSpec{ByCode: true, Bucket: time.Second},
		RollupSpec{ByCode: true, ByNode: true, Bucket: time.Second},
		RollupSpec{ByCabinet: true, Bucket: 97 * time.Second},
		RollupSpec{ByCode: true, ByCage: true, Bucket: 400 * 24 * time.Hour}, // wider than the span
	)
	oracleCases(t, func(name string, segs []*Segment, tail, kept []console.Event, m *Matcher, workers int) {
		for _, spec := range specs {
			want := oracleRollup(kept, spec)
			acc, err := ParallelRollupAcc(segs, tail, spec, m, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := acc.Partial(); !reflect.DeepEqual(got, want) {
				sameJSON(t, name+": partial", got, want)
				t.Fatalf("%s %+v: partial differs from the oracle only outside its JSON", name, spec)
			}
			sameJSON(t, name+": doc", acc.Doc(), oracleRollupDoc(want))

			// Per-source partials through the wire and back, merged.
			parts := make([]RollupPartial, 0, len(segs)+1)
			for _, seg := range segs {
				part, _ := ParallelRollupAcc([]*Segment{seg}, nil, spec, m, 1)
				parts = append(parts, part.Partial())
			}
			part, _ := ParallelRollupAcc(nil, tail, spec, m, 1)
			parts = append(parts, part.Partial())
			wire, _ := json.Marshal(parts)
			var back []RollupPartial
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatal(err)
			}
			merged, err := MergeRollupPartials(back)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, name+": merged partials", merged.Partial(), want)
		}
	})
}

// TestTopMatchesMapOracle: the same for the offender ranking, every
// dimension, K from "all" through a handful to 2^40 — a rank bound, not
// a size: every key comes back with "k" echoed as asked, where the parent
// commit sized its card slice by K and died out of memory.
func TestTopMatchesMapOracle(t *testing.T) {
	var specs []TopSpec
	for _, by := range []TopBy{TopByNode, TopBySerial, TopByCode} {
		for _, k := range []int{0, 1, 4, 1 << 40} {
			specs = append(specs, TopSpec{By: by, K: k})
		}
	}
	oracleCases(t, func(name string, segs []*Segment, tail, kept []console.Event, m *Matcher, workers int) {
		for _, spec := range specs {
			want := oracleTop(kept, spec)
			acc, err := ParallelTopAcc(segs, tail, spec, m, workers, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := acc.Partial(); !reflect.DeepEqual(got, want) {
				sameJSON(t, name+": partial", got, want)
				t.Fatalf("%s %+v: partial differs from the oracle only outside its JSON", name, spec)
			}
			sameJSON(t, name+": doc", acc.Doc(), oracleTopDoc(want))

			parts := make([]TopPartial, 0, len(segs)+1)
			for _, seg := range segs {
				part, _ := ParallelTopAcc([]*Segment{seg}, nil, spec, m, 1, true)
				parts = append(parts, part.Partial())
			}
			part, _ := ParallelTopAcc(nil, tail, spec, m, 1, true)
			parts = append(parts, part.Partial())
			wire, _ := json.Marshal(parts)
			var back []TopPartial
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatal(err)
			}
			merged, err := MergeTopPartials(back)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, name+": merged partials", merged.Partial(), want)
			sameJSON(t, name+": merged doc", merged.Doc(), oracleTopDoc(want))
		}
	})
}

// tiedEvents is a stream whose counts tie across every small K: twelve
// nodes of three events and three serials each, two more of four, so a
// cut at 1, 2, 5 or 13 lands between equal counts and only the key
// order decides who is kept.
func tiedEvents() []console.Event {
	var events []console.Event
	for round := 0; round < 4; round++ {
		for n := 0; n < 14; n++ {
			if round == 3 && n >= 2 {
				continue
			}
			events = append(events, console.Event{
				Time:   time.Unix(int64(1000*round+7*n), 0).UTC(),
				Node:   topology.NodeID(97 * (14 - n)), // descending, so first-seen order is not key order
				Code:   xid.Code(13 + n%3),
				Serial: gpu.Serial(500 + (n*5+round)%9),
				Page:   console.NoPage,
			})
		}
	}
	return events
}

// TestTopCountFirstMatchesOracle: a ranking folded count-first — count
// per key, rank, then the detail kernel over the winners' rows alone —
// renders exactly what the single detail pass over every key renders,
// and what the map oracle does: every dimension, K from one through the
// key count and past it (0 = all), cuts that land inside ties, every way
// rows reach an accumulator, one worker and four. The every-key fold's
// Partial, which a router merges, is the oracle's as before.
func TestTopCountFirstMatchesOracle(t *testing.T) {
	check := func(name string, segs []*Segment, tail, kept []console.Event, m *Matcher, _ int) {
		for _, by := range []TopBy{TopByNode, TopBySerial, TopByCode} {
			keys := len(oracleTop(kept, TopSpec{By: by}).Aggs)
			for _, k := range []int{1, 2, 5, 13, keys - 1, keys, keys + 1, 0} {
				if k < 0 {
					continue
				}
				spec := TopSpec{By: by, K: k}
				raw := oracleTop(kept, spec)
				want := oracleTopDoc(raw)
				for _, workers := range []int{1, 4} {
					what := fmt.Sprintf("%s: top %s %d, %d workers", name, by, k, workers)
					first, err := ParallelTopAcc(segs, tail, spec, m, workers, false)
					if err != nil {
						t.Fatal(err)
					}
					every, err := ParallelTopAcc(segs, tail, spec, m, workers, true)
					if err != nil {
						t.Fatal(err)
					}
					if first.Total() != int64(len(kept)) || every.Total() != int64(len(kept)) {
						t.Fatalf("%s: folded %d and %d rows, matcher keeps %d", what, first.Total(), every.Total(), len(kept))
					}
					sameJSON(t, what+": count-first doc", first.Doc(), want)
					sameJSON(t, what+": every-key doc", every.Doc(), want)
					sameJSON(t, what+": every-key partial", every.Partial(), raw)
					first.Release()
					every.Release()
				}
			}
		}
	}
	oracleCases(t, check)

	tied := tiedEvents()
	segs := sealChunks(t, tied, 11)
	check("tied/segments", segs, nil, tied, nil, 0)
	check("tied/tail", nil, tied, tied, nil, 0)
	check("tied/both", segs[:2], tied[22:], tied, nil, 0)
	m, err := Predicate{NotCodes: []xid.Code{14}, Cage: -1}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var kept []console.Event
	for _, e := range tied {
		if m.MatchEvent(e) {
			kept = append(kept, e)
		}
	}
	check("tied/matcher", segs[:2], tied[22:], kept, m, 0)

	// One fold over segments the matcher rules out, picks rows out of and
	// keeps whole: a count pass by node reads the whole ones off their
	// node index and the others row by row, and the detail pass reads
	// the winners' rows off every index.
	for name, p := range map[string]Predicate{
		"mixed/window":    {Since: tied[16].Time, Cage: -1},
		"mixed/both ends": {Since: tied[16].Time, Until: tied[40].Time, Cage: -1},
	} {
		m, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[segMatch]bool{}
		for _, seg := range segs {
			_, kind := m.segmentBits(seg, nil)
			kinds[kind] = true
		}
		if !kinds[matchAll] || !kinds[matchSome] {
			t.Fatalf("%s: segment verdicts %v, want matchAll and matchSome both", name, kinds)
		}
		kept = kept[:0]
		for _, e := range tied {
			if m.MatchEvent(e) {
				kept = append(kept, e)
			}
		}
		check(name, segs, nil, kept, m, 0)
		check(name+"/tail", segs[:3], tied[33:], kept, m, 0)
	}
}

// TestFoldAllocsIndependentOfRows: a warm fold — its accumulator, count
// table, gather block and bitmaps borrowed from the pools and released —
// allocates next to nothing, whatever the rows, the keys or the matcher:
// it reads 1 or 2 (the fold's closures) against a ceiling of 4, where
// fresh tables were ~40 for these fixtures, one allocation per block
// would add 20 and one per row 20,000. The render is left out: its Go
// maps allocate by hash seed.
func TestFoldAllocsIndependentOfRows(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	const ceiling = 4
	events := adversarialEvents()
	var more []console.Event
	for i := 0; i < 4; i++ {
		more = append(more, events...)
	}
	small := sealChunks(t, events, (len(events)+3)/4)
	large := sealChunks(t, more, (len(more)+3)/4)
	if len(small) != 4 || len(large) != 4 {
		t.Fatalf("fixture: %d and %d segments, want 4 and 4", len(small), len(large))
	}
	m, err := Predicate{NotCodes: []xid.Code{13}, Cage: -1}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	top := func(by TopBy, everyKey bool) func(segs []*Segment, m *Matcher) {
		return func(segs []*Segment, m *Matcher) {
			acc, _ := ParallelTopAcc(segs, nil, TopSpec{By: by, K: 5}, m, 1, everyKey)
			acc.Release()
		}
	}
	for name, fold := range map[string]func(segs []*Segment, m *Matcher){
		"rollup": func(segs []*Segment, m *Matcher) {
			acc, _ := ParallelRollupAcc(segs, nil, RollupSpec{ByCode: true, ByNode: true, Bucket: time.Hour}, m, 1)
			acc.Release()
		},
		"rollup by location": func(segs []*Segment, m *Matcher) {
			acc, _ := ParallelRollupAcc(segs, nil, RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}, m, 1)
			acc.Release()
		},
		"rollup by location, sparse": func(segs []*Segment, m *Matcher) {
			acc, _ := ParallelRollupAcc(segs, nil, RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Second}, m, 1)
			acc.Release()
		},
		"top node":              top(TopByNode, false),
		"top serial":            top(TopBySerial, false),
		"top node, every key":   top(TopByNode, true),
		"top serial, every key": top(TopBySerial, true),
	} {
		for _, m := range []*Matcher{nil, m} {
			for _, segs := range [][]*Segment{small, large} {
				fold(segs, m) // warm the pools at this size
				if a := testing.AllocsPerRun(5, func() { fold(segs, m) }); a > ceiling {
					t.Errorf("%s (matcher %v): a warm fold over %d-row segments made %v allocations, ceiling %d", name, m != nil, segs[0].Len(), a, ceiling)
				}
			}
		}
	}
}

// FuzzRollupMatchesMapOracle: drawn events — times that run forward,
// jump back or sit sorted, up to a hundred codes (past the histogram's
// columns), nodes anywhere, a few past the machine in the retained tail
// — folded under a drawn spec and bucket, split between sealed segments
// and a tail, by one to three workers, answer exactly like the map
// oracle; so do the per-source partials merged back. RollupEvents,
// FoldEvents and bench/'s references run the same kernel, so this is
// the check that holds them to something else.
func FuzzRollupMatchesMapOracle(f *testing.F) {
	f.Add(uint64(1), uint8(0x3), uint8(3), true, uint16(128), uint16(40), uint8(1))
	f.Add(uint64(2), uint8(0x7), uint8(0), false, uint16(50), uint16(0), uint8(3))
	f.Add(uint64(3), uint8(0x9), uint8(2), true, uint16(300), uint16(100), uint8(2))
	f.Add(uint64(4), uint8(0x13), uint8(5), false, uint16(64), uint16(7), uint8(2)) // a hundred codes
	f.Add(uint64(5), uint8(0x16), uint8(1), true, uint16(1000), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, dims, bucket uint8, sorted bool, chunk, tail uint16, workers uint8) {
		state := seed
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state >> 33 % uint64(n))
		}
		buckets := []time.Duration{time.Second, 7 * time.Second, 97 * time.Second, time.Hour, 6 * time.Hour, 24 * time.Hour, 400 * 24 * time.Hour}
		spec := RollupSpec{ByCode: dims&1 != 0, ByCabinet: dims&2 != 0, ByCage: dims&4 != 0, ByNode: dims&8 != 0, Bucket: buckets[int(bucket)%len(buckets)]}
		codes := 8
		if dims&16 != 0 {
			codes = 100
		}
		events := make([]console.Event, 1+next(700))
		sec := int64(next(400000)) - 200000
		for i := range events {
			switch next(10) {
			case 0:
				sec -= int64(next(100000)) // back, maybe across the epoch
			case 1, 2:
				// the same second again
			default:
				sec += int64(next(4000))
			}
			events[i] = console.Event{
				Time: time.Unix(sec, 0).UTC(), Node: topology.NodeID(next(topology.TotalNodes)),
				Code: xid.Code(next(codes) - 2), Serial: gpu.Serial(next(4)), Page: console.NoPage,
			}
		}
		if sorted {
			slices.SortStableFunc(events, func(a, b console.Event) int { return a.Time.Compare(b.Time) })
		}
		cut := len(events) - min(int(tail), len(events))
		for i := cut; i < len(events); i++ {
			if next(20) == 0 {
				events[i].Node = topology.TotalNodes + topology.NodeID(next(800))
			}
		}
		segs := sealChunks(t, events[:cut], 1+int(chunk)%700)
		want := oracleRollup(events, spec)
		acc, err := ParallelRollupAcc(segs, events[cut:], spec, nil, 1+int(workers)%3)
		if err != nil {
			t.Fatal(err)
		}
		defer acc.Release()
		if got := acc.Partial(); !reflect.DeepEqual(got, want) {
			sameJSON(t, "fold", got, want)
			t.Fatal("partial differs from the oracle only outside its JSON")
		}
		parts := []RollupPartial{}
		for _, seg := range segs {
			part, _ := ParallelRollupAcc([]*Segment{seg}, nil, spec, nil, 1)
			parts = append(parts, part.Partial())
			part.Release()
		}
		part, _ := ParallelRollupAcc(nil, events[cut:], spec, nil, 1)
		parts = append(parts, part.Partial())
		part.Release()
		merged, err := MergeRollupPartials(parts)
		if err != nil {
			t.Fatal(err)
		}
		defer merged.Release()
		if got := merged.Partial(); !reflect.DeepEqual(got, want) {
			sameJSON(t, "merged partials", got, want)
			t.Fatal("merged partial differs from the oracle only outside its JSON")
		}
	})
}
