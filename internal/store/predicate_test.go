package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/race"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// TestBitmapOps checks the word-wise set algebra against a naive
// per-bit model, across widths that cross word boundaries.
func TestBitmapOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 1000} {
		a, b := newBitmap(n), newBitmap(n)
		av, bv := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.set(i)
				av[i] = true
			}
			if rng.Intn(3) == 0 {
				b.set(i)
				bv[i] = true
			}
		}
		check := func(op string, got bitmap, want func(x, y bool) bool) {
			t.Helper()
			count := 0
			for i := 0; i < n; i++ {
				w := want(av[i], bv[i])
				if got.get(i) != w {
					t.Fatalf("n=%d %s: bit %d = %v, want %v", n, op, i, got.get(i), w)
				}
				if w {
					count++
				}
			}
			if got.count() != count {
				t.Fatalf("n=%d %s: count %d, want %d", n, op, got.count(), count)
			}
		}
		keep := a.clone()
		keep.keep(func(i int) bool { return bv[i] })
		check("keep", keep, func(x, y bool) bool { return x && y })
		or := a.clone()
		or.or(b)
		check("or", or, func(x, y bool) bool { return x || y })
		andNot := a.clone()
		andNot.andNot(b)
		check("andNot", andNot, func(x, y bool) bool { return x && !y })
		andAny := a.clone()
		andAny.andAny([]bitmap{newBitmap(n), b})
		check("andAny", andAny, func(x, y bool) bool { return x && y })

		// Built over a dirty, oversized buffer, as a fold's pooled words are.
		dirty := make([]uint64, n/64+3)
		for i := range dirty {
			dirty[i] = 0xA5A5A5A5A5A5A5A5
		}
		if bitmapIn(dirty, n, false).any() {
			t.Fatalf("bitmapIn(%d, clear) kept bits of its buffer", n)
		}
		full := bitmapIn(dirty, n, true)
		if full.count() != n {
			t.Fatalf("bitmapIn(%d, full).count() = %d", n, full.count())
		}
		if n%64 != 0 {
			// Trailing bits past n must stay clear or count would lie.
			if w := full.words[len(full.words)-1]; w>>(uint(n)&63) != 0 {
				t.Fatalf("bitmapIn(%d, full) set bits past n", n)
			}
		}
		if full.any() != true || newBitmap(n).any() != false {
			t.Fatal("any() misreports")
		}
	}
}

// predCases is a predicate mix covering every filter dimension and
// their conjunctions.
func predCases(events []console.Event) []Predicate {
	quarter := events[len(events)/4].Time
	mid := events[len(events)/2].Time
	end := events[3*len(events)/4].Time
	cname := topology.CNameOf(events[0].Node)
	return []Predicate{
		{Cage: -1},
		{Codes: []xid.Code{xid.DoubleBitError}, Cage: -1},
		{Codes: []xid.Code{13, 31, xid.OffTheBus}, Cage: -1},
		{Codes: []xid.Code{99}, Cage: -1}, // absent code: empty result
		{NotCodes: []xid.Code{13}, Cage: -1},
		{Codes: []xid.Code{13, 48}, NotCodes: []xid.Code{48}, Cage: -1},
		{Node: "c3-*", Cage: -1},
		{Node: "c?-1c2s*", Cage: -1},
		{Cabinet: "c3-2", Cage: -1},
		{Cabinet: "c*-0", Cage: 2},
		{Cage: 0},
		{Since: mid, Cage: -1},
		{Until: mid, Cage: -1},
		{Since: mid, Until: end, Cage: -1},
		{Codes: []xid.Code{xid.DoubleBitError, 13}, Cabinet: "c1-*", Cage: 1, Since: mid, Until: end},
		// One code inside a bounded window — the /codes/{xid}/history shape.
		{Codes: []xid.Code{events[0].Code}, Cage: -1, Since: quarter, Until: end},
		// Literal cnames take Compile's parse-don't-glob path: a present
		// node (the /nodes/{cname}/history shape), one its cabinet filter
		// contradicts, and spellings that name no node at all.
		{Node: cname, Cage: -1},
		{Node: cname, Cage: -1, Since: quarter, Until: end},
		{Node: cname, Cabinet: "c99-*", Cage: -1},
		{Node: "c99-99c0s0n0", Cage: -1},
		{Node: "c03-2c1s4n2", Cage: -1},
		// Codes no int16 column can hold must match nothing, not alias
		// the XID they truncate to (65549 -> 13).
		{Codes: []xid.Code{65549}, Cage: -1},
		{NotCodes: []xid.Code{65549}, Cage: -1},
	}
}

// TestSegmentBitsMatchEvent: for every predicate, the bitmap a sealed
// segment evaluates must mark exactly the rows whose reconstructed
// events MatchEvent accepts — the two filter paths agree row for row.
func TestSegmentBitsMatchEvent(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	third := len(events) / 3
	for _, cut := range [][2]int{{0, third}, {third, 2 * third}, {2 * third, len(events)}} {
		if _, err := st.Seal(events[cut[0]:cut[1]]); err != nil {
			t.Fatal(err)
		}
	}
	for pi, p := range predCases(events) {
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("pred %d: %v", pi, err)
		}
		total := 0
		for si, seg := range st.Segments() {
			var want []console.Event
			for i := 0; i < seg.Len(); i++ {
				if m.MatchEvent(seg.EventAt(i)) {
					want = append(want, seg.EventAt(i))
				}
			}
			if got := seg.CountWhere(m); got != len(want) {
				t.Fatalf("pred %d seg %d: CountWhere %d, want %d", pi, si, got, len(want))
			}
			got := seg.ScanWhere(m, nil)
			if len(got) != len(want) {
				t.Fatalf("pred %d seg %d: ScanWhere %d events, want %d", pi, si, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pred %d seg %d: event %d diverges", pi, si, i)
				}
			}
			total += len(got)
		}
		// ScanWhere pre-sizes by popcount: no reallocation happens.
		if total > 0 {
			seg := st.Segments()[0]
			out := seg.ScanWhere(m, nil)
			if out != nil && cap(out) != len(out) {
				t.Fatalf("pred %d: ScanWhere over-allocated cap %d for %d events", pi, cap(out), len(out))
			}
		}
	}
	// An unbounded single-code predicate is exactly the stored bitmap.
	for _, code := range st.Codes() {
		m, err := Predicate{Codes: []xid.Code{code}, Cage: -1}.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for si, seg := range st.Segments() {
			if got, want := seg.CountWhere(m), seg.CountCode(code); got != want {
				t.Fatalf("code %v seg %d: CountWhere %d != popcount %d", code, si, got, want)
			}
		}
	}
	// The literal-cname fast path keeps the nodes the glob path would.
	cname := topology.CNameOf(events[0].Node)
	for _, p := range []Predicate{{Node: cname, Cage: -1}, {Node: cname, Cabinet: "c*-*", Cage: int(events[0].Node) / topology.NodesPerCage % topology.CagesPerCabinet}, {Node: "c99-99c0s0n0", Cage: -1}} {
		lit, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		p.Node = "[c]" + p.Node[1:] // same single cname, spelled as a glob
		glob, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nodeMask(lit), nodeMask(glob)) {
			t.Fatalf("literal %q: kept nodes differ from the glob path's", cname)
		}
	}
	// A cabinet or cage filter keeps node-id ranges; they hold the nodes
	// a walk over every node's location keeps, for every
	// cabinet glob above and a few more (one matching nothing, one
	// everything), at every cage, with and without a node glob inside.
	cabinets := []string{"", "c[!3]-*", "c?-0", "c8-*", "c*"}
	for _, p := range predCases(events) {
		if p.Cabinet != "" {
			cabinets = append(cabinets, p.Cabinet)
		}
	}
	for _, cabinet := range cabinets {
		for cage := -1; cage < topology.CagesPerCabinet; cage++ {
			for _, node := range []string{"", "c?-1c2s*", "*n3"} {
				if cabinet == "" && cage < 0 && node == "" {
					continue // the empty predicate: no matcher at all
				}
				m, err := Predicate{Node: node, Cabinet: cabinet, Cage: cage}.Compile()
				if err != nil {
					t.Fatal(err)
				}
				want := make([]bool, topology.TotalNodes)
				for n := range want {
					loc := topology.LocationOf(topology.NodeID(n))
					want[n] = cage < 0 || loc.Cage == cage
					for glob, name := range map[string]string{cabinet: fmt.Sprintf("c%d-%d", loc.Column, loc.Row), node: loc.CName()} {
						if ok, _ := path.Match(glob, name); glob != "" && !ok {
							want[n] = false
						}
					}
				}
				if !reflect.DeepEqual(nodeMask(m), want) {
					t.Fatalf("cabinet=%q cage=%d node=%q: the ranges are not the per-node walk's", cabinet, cage, node)
				}
				for i := 1; i < len(m.ranges); i++ {
					if m.ranges[i-1].hi >= m.ranges[i].lo {
						t.Fatalf("cabinet=%q cage=%d node=%q: ranges %v and %v are not ascending and apart", cabinet, cage, node, m.ranges[i-1], m.ranges[i])
					}
				}
			}
		}
	}
	// And it costs the matcher and its ranges, not a name a cabinet.
	if a := testing.AllocsPerRun(10, func() { _, _ = Predicate{Cabinet: "c3-*", Cage: -1}.Compile() }); a > 2 && !race.Enabled {
		t.Errorf("compiling cabinet=c3-* made %v allocations, want the matcher and the ranges", a)
	}
}

// nodeMask spells a matcher's node ranges as a flag per node id (nil for
// the matcher that keeps every node).
func nodeMask(m *Matcher) []bool {
	if m.ranges == nil {
		return nil
	}
	mask := make([]bool, topology.TotalNodes)
	for _, r := range m.ranges {
		for n := r.lo; n < r.hi; n++ {
			mask[n] = true
		}
	}
	return mask
}

// TestPredicateValidation: bad globs and out-of-range cages fail at
// Compile, never mid-scan.
func TestPredicateValidation(t *testing.T) {
	for _, p := range []Predicate{
		{Node: "c[3-", Cage: -1},
		{Cabinet: "c[", Cage: -1},
		{Cage: 3},
		{Cage: 99},
	} {
		if _, err := p.Compile(); err == nil {
			t.Fatalf("predicate %+v compiled, want error", p)
		}
	}
	if p := (Predicate{Cage: -1}); !p.Empty() {
		t.Fatal("unconstrained predicate not Empty")
	}
	if p := (Predicate{Node: "c3-*", Cage: -1}); p.Empty() {
		t.Fatal("node-constrained predicate reports Empty")
	}
}

// extra is a second filter stated beside a predicate: one code and/or a
// time range — what RollupSpec/TopSpec's own FilterCode, Since and Until
// fields once carried. Now the only way to state it is inside the
// predicate (and), and the tests that used those fields hold the fold
// under the combined predicate to the naive answer (kept).
type extra struct {
	filterCode   bool
	code         xid.Code
	since, until time.Time
}

// and returns p narrowed by x. A code p's list excludes leaves nothing:
// Codes and NotCodes naming the same code say so.
func (x extra) and(p Predicate) Predicate {
	if x.filterCode {
		if len(p.Codes) > 0 && !codeIn(x.code, p.Codes) {
			p.NotCodes = append(append([]xid.Code(nil), p.NotCodes...), x.code)
		}
		p.Codes = []xid.Code{x.code}
	}
	if !x.since.IsZero() && (p.Since.IsZero() || x.since.After(p.Since)) {
		p.Since = x.since
	}
	if !x.until.IsZero() && (p.Until.IsZero() || x.until.Before(p.Until)) {
		p.Until = x.until
	}
	return p
}

// matcher compiles x.and(p).
func (x extra) matcher(t *testing.T, p Predicate) *Matcher {
	t.Helper()
	m, err := x.and(p).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// kept is the naive conjunction: the events m matches (nil = all) that
// also pass x, tested field by field at the store's second resolution.
func (x extra) kept(events []console.Event, m *Matcher) []console.Event {
	var kept []console.Event
	for _, e := range events {
		sec := e.Time.Unix()
		if !m.MatchEvent(e) || x.filterCode && e.Code != x.code ||
			!x.since.IsZero() && sec < x.since.Unix() || !x.until.IsZero() && sec > x.until.Unix() {
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// TestRollupWhereMatchesEventFold: the single fold — gather.segment over
// sealed segments plus gather.events over a tail, under one matcher —
// renders byte-identically to the naive fold (filter the materialized
// stream event by event, then run the plain event kernel) across
// predicates, specs and sealed/tail split points. The extra one-code
// filters meet predicates whose Codes contain that code, exclude it, and
// do not constrain codes at all: every way the two can combine.
func TestRollupWhereMatchesEventFold(t *testing.T) {
	events := simEvents(t)
	rollSpecs := []struct {
		spec RollupSpec
		also extra
	}{
		{spec: RollupSpec{ByCode: true, ByCage: true, Bucket: 6 * time.Hour}},
		{RollupSpec{ByCabinet: true, Bucket: 6 * time.Hour}, extra{filterCode: true, code: 13}},
		{RollupSpec{ByCode: true, Bucket: 24 * time.Hour}, extra{filterCode: true, code: xid.DoubleBitError, since: events[len(events)/3].Time}},
	}
	topSpecs := []struct {
		spec TopSpec
		also extra
	}{
		{spec: TopSpec{By: TopByNode, K: 10}},
		{spec: TopSpec{By: TopBySerial, K: 10}},
		{spec: TopSpec{By: TopByCode, K: 0}},
		{TopSpec{By: TopBySerial, K: 5}, extra{filterCode: true, code: 13}},
	}
	for _, split := range []int{0, 1, len(events) / 2, len(events) - 1, len(events)} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sealed := events[:split]
		const chunk = 20000
		for lo := 0; lo < len(sealed); lo += chunk {
			hi := min(lo+chunk, len(sealed))
			if _, err := st.Seal(sealed[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		tail := events[split:]
		for pi, p := range predCases(events) {
			m, err := p.Compile()
			if err != nil {
				t.Fatalf("pred %d: %v", pi, err)
			}
			for si, c := range rollSpecs {
				wantRoll, err := RollupEvents(c.also.kept(events, m), c.spec)
				if err != nil {
					t.Fatal(err)
				}
				gotRoll, err := ParallelRollup(st.Segments(), tail, c.spec, c.also.matcher(t, p), 1)
				if err != nil {
					t.Fatal(err)
				}
				if !jsonEqual(t, gotRoll, wantRoll) {
					t.Fatalf("split %d pred %d spec %d: rollup diverges from naive event fold", split, pi, si)
				}
			}
			for si, c := range topSpecs {
				wantTop, err := TopEvents(c.also.kept(events, m), c.spec)
				if err != nil {
					t.Fatal(err)
				}
				gotTop, err := ParallelTop(st.Segments(), tail, c.spec, c.also.matcher(t, p), 1)
				if err != nil {
					t.Fatal(err)
				}
				if !jsonEqual(t, gotTop, wantTop) {
					t.Fatalf("split %d pred %d spec %d: top diverges from naive event fold", split, pi, si)
				}
			}
		}
	}
}

// TestParallelByteIdentical: the segment-parallel executor renders the
// identical bytes at every worker count, matcher or not.
func TestParallelByteIdentical(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 8192
	for lo := 0; lo < len(events)*3/4; lo += chunk {
		hi := min(lo+chunk, len(events)*3/4)
		if _, err := st.Seal(events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	tail := events[len(events)*3/4:]
	spec := RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}
	topSpec := TopSpec{By: TopBySerial, K: 25}
	for _, p := range []*Predicate{nil, {Codes: []xid.Code{13, 48}, Cabinet: "c*-1", Cage: -1}} {
		var m *Matcher
		if p != nil {
			if m, err = p.Compile(); err != nil {
				t.Fatal(err)
			}
		}
		refRoll, err := ParallelRollup(st.Segments(), tail, spec, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		refTop, err := ParallelTop(st.Segments(), tail, topSpec, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Serial reference equals the plain event fold when unfiltered.
		if m == nil {
			old, err := RollupEvents(events, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !jsonEqual(t, refRoll, old) {
				t.Fatal("ParallelRollup(workers=1, nil matcher) diverges from RollupEvents")
			}
		}
		for _, workers := range []int{2, 3, 4, 7, 16, 0} {
			gotRoll, err := ParallelRollup(st.Segments(), tail, spec, m, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !jsonEqual(t, gotRoll, refRoll) {
				t.Fatalf("workers=%d: rollup bytes diverge", workers)
			}
			gotTop, err := ParallelTop(st.Segments(), tail, topSpec, m, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !jsonEqual(t, gotTop, refTop) {
				t.Fatalf("workers=%d: top bytes diverge", workers)
			}
		}
	}
}

// jsonEqual compares two documents by their rendered JSON bytes — the
// same representation the HTTP handlers serve.
func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(aj, bj)
}
