package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/race"
	"titanre/internal/sim"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// simEvents builds one month of simulated events, batch-parsed back
// from their console rendering so timestamps carry the second
// resolution the store (and the console format) preserves.
func simEvents(t *testing.T) []console.Event {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	res := sim.Run(cfg)
	var log bytes.Buffer
	if err := console.WriteLog(&log, res.Events); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	events, err := console.NewCorrelator().ParseAll(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("ParseAll: %v", err)
	}
	return events
}

// TestRoundTripDigest is the tentpole identity: sealing a parsed log
// into segments and re-rendering through AppendRaw reproduces the log
// bytes exactly, digest for digest.
func TestRoundTripDigest(t *testing.T) {
	events := simEvents(t)
	var log bytes.Buffer
	if err := console.WriteLog(&log, events); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	want := sha256.Sum256(log.Bytes())

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Seal in three chunks to exercise multi-segment ordering.
	for _, cut := range [][2]int{{0, len(events) / 3}, {len(events) / 3, 2 * len(events) / 3}, {2 * len(events) / 3, len(events)}} {
		if _, err := st.Seal(events[cut[0]:cut[1]]); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	if got := st.Digest(); got != want {
		t.Fatalf("store digest %x != log digest %x", got, want)
	}

	// Reload from disk and digest again: the file format must round-trip.
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := st2.Digest(); got != want {
		t.Fatalf("reloaded digest %x != log digest %x", got, want)
	}
	if st2.EventCount() != len(events) {
		t.Fatalf("reloaded count %d != %d", st2.EventCount(), len(events))
	}
}

// TestEventsExact checks field-for-field equality of reconstructed
// events, including Compare-order identity.
func TestEventsExact(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Seal(events); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got := st.Events()
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

// TestScanCodeMatchesFilter checks bitmap scans against a plain filter
// for every code present, and popcount-exact allocation.
func TestScanCodeMatchesFilter(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	half := len(events) / 2
	if _, err := st.Seal(events[:half]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := st.Seal(events[half:]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	codes := st.Codes()
	if len(codes) == 0 {
		t.Fatal("no codes in store")
	}
	for _, code := range codes {
		var want []console.Event
		for _, e := range events {
			if e.Code == code {
				want = append(want, e)
			}
		}
		got := st.ScanCode(code)
		if len(got) != len(want) {
			t.Fatalf("code %v: got %d events, want %d", code, len(got), len(want))
		}
		if cap(got) != len(want) {
			t.Errorf("code %v: scan allocated cap %d for %d events (should be exact)", code, cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("code %v event %d mismatch", code, i)
			}
		}
	}
	if got := st.ScanCode(xid.Code(9999)); got != nil {
		t.Fatalf("absent code returned %d events", len(got))
	}
}

// TestScanNodePruning checks node scans with time bounds and that
// disjoint segments are pruned by min/max time.
func TestScanNodePruning(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	half := len(events) / 2
	if _, err := st.Seal(events[:half]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := st.Seal(events[half:]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	node := events[0].Node
	since := events[half].Time
	var want []console.Event
	for _, e := range events {
		if e.Node == node && !e.Time.Before(since) {
			want = append(want, e)
		}
	}
	got := st.ScanNode(node, since, time.Time{})
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

// TestCorruptionDetected flips bytes across the file and requires every
// flip to be rejected with ErrCorrupt.
func TestCorruptionDetected(t *testing.T) {
	events := simEvents(t)[:200]
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Seal(events); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	path := filepath.Join(st.Dir(), "seg-000000.seg")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for _, pos := range []int{0, 9, 20, len(orig) / 2, len(orig) - 1} {
		data := bytes.Clone(orig)
		data[pos] ^= 0x40
		if _, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
	}
	if _, err := Unmarshal(orig[:len(orig)-10]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file: got %v, want ErrCorrupt", err)
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty file: got %v, want ErrCorrupt", err)
	}
}

// TestCardDictOverflow checks the 255-serials-per-node bound.
func TestCardDictOverflow(t *testing.T) {
	b := NewBuilder(maxCardsPerNode + 1)
	base := console.Event{
		Time: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		Node: topology.NodeID(7),
		Code: 13,
		Page: console.NoPage,
	}
	for i := 0; i <= maxCardsPerNode; i++ {
		e := base
		e.Serial = gpu.Serial(1000 + i)
		err := b.Append(e)
		if i < maxCardsPerNode && err != nil {
			t.Fatalf("serial %d: unexpected error %v", i, err)
		}
		if i == maxCardsPerNode && err == nil {
			t.Fatal("256th distinct serial accepted")
		}
	}
}

// forgeDict is seg's file with its dictionary section replaced by the
// given entries — a node id, then its serials — in the order given, under
// a fresh digest: what a buggy writer could leave behind a matching one.
func forgeDict(seg *Segment, entries ...[]uint32) []byte {
	data := seg.Marshal(nil)
	body := data[:len(data)-sha256.Size]
	start := layoutFor(seg.Len(), len(seg.arena)).tail
	p := start
	skip := func() uint64 {
		v, m := binary.Uvarint(body[p:])
		p += m
		return v
	}
	for nnodes := skip(); nnodes > 0; nnodes-- {
		skip()
		for cnt := skip(); cnt > 0; cnt-- {
			skip()
		}
	}
	out := binary.AppendUvarint(bytes.Clone(body[:start]), uint64(len(entries)))
	for _, e := range entries {
		out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(e[0])), uint64(len(e)-1))
		for _, serial := range e[1:] {
			out = binary.AppendUvarint(out, uint64(serial))
		}
	}
	out = append(out, body[p:]...)
	digest := sha256.Sum256(out)
	return append(out, digest[:]...)
}

// TestDictionaryShapeChecked: the card table is built from the
// dictionary section in one ascending walk, so what the per-node map
// used to swallow is refused — a node named twice (the map kept the
// last), nodes out of ascending order (the map did not care), a node
// with no serial — and a card index past its node's count still is.
// The writer produces none of them.
func TestDictionaryShapeChecked(t *testing.T) {
	b := NewBuilder(4)
	for i, ev := range []console.Event{{Node: 7, Serial: 100}, {Node: 3, Serial: 200}, {Node: 7, Serial: 101}, {Node: 7, Serial: 100}} {
		ev.Time, ev.Code, ev.Page = time.Unix(1370000000+int64(i), 0).UTC(), 13, console.NoPage
		if err := b.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	good := forgeDict(seg, []uint32{3, 200}, []uint32{7, 100, 101})
	if !bytes.Equal(good, seg.Marshal(nil)) {
		t.Fatal("forgeDict does not reproduce the file from the writer's own dictionary")
	}
	back, err := Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seg.Len(); i++ {
		if back.EventAt(i) != seg.EventAt(i) {
			t.Fatalf("row %d: %+v after the round trip, %+v before", i, back.EventAt(i), seg.EventAt(i))
		}
	}
	for name, data := range map[string][]byte{
		"descending nodes":     forgeDict(seg, []uint32{7, 100, 101}, []uint32{3, 200}),
		"a node named twice":   forgeDict(seg, []uint32{3, 200}, []uint32{7, 100}, []uint32{7, 100, 101}),
		"a node with no card":  forgeDict(seg, []uint32{3, 200}, []uint32{5}, []uint32{7, 100, 101}),
		"a card past its node": forgeDict(seg, []uint32{3, 200}, []uint32{7, 100}),
		"a row's node missing": forgeDict(seg, []uint32{7, 100, 101}),
		"a node out of range":  forgeDict(seg, []uint32{3, 200}, []uint32{7, 100, 101}, []uint32{topology.TotalNodes, 1}),
	} {
		if _, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestOpenAllocsIndependentOfNodes: opening a mapped segment allocates
// the segment, the card table's two slices and a word array a code — not
// a dictionary a node, as the map did — so fifty times the nodes open
// with the same allocation count.
func TestOpenAllocsIndependentOfNodes(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime's own bookkeeping moves allocation figures")
	}
	open := func(nodes int) float64 {
		b := NewBuilder(4 * nodes)
		for i := 0; i < 4*nodes; i++ {
			ev := console.Event{Time: time.Unix(1370000000+int64(i), 0).UTC(), Node: topology.NodeID(i % nodes * 3), Code: xid.Code(13 + i%3), Serial: gpu.Serial(1 + i%(2*nodes)), Page: console.NoPage}
			if err := b.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		data := seg.Marshal(nil)
		return testing.AllocsPerRun(5, func() {
			if _, err := parseSegment(data, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := open(100), open(5000)
	const ceiling = 4 + 3 // segment, base, serials, byCode; three codes
	if few != many || many > ceiling {
		t.Errorf("a mapped open allocates %v times for 100 nodes, %v for 5,000; want the same, at most %d", few, many, ceiling)
	}
}

// TestBuilderValidation checks code and node range errors.
func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(1)
	e := console.Event{Time: time.Now(), Node: topology.NodeID(topology.TotalNodes), Code: 13, Page: console.NoPage}
	if err := b.Append(e); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	e.Node = 0
	e.Code = 70000
	if err := b.Append(e); err == nil {
		t.Fatal("out-of-range code accepted")
	}
	if _, err := NewBuilder(0).Seal(); err == nil {
		t.Fatal("empty seal accepted")
	}
}

// TestOpenSkipsForeignFiles checks Open ignores non-.seg files and that
// sealing after reopen continues the file numbering.
func TestOpenSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	events := simEvents(t)[:100]
	if _, err := st.Seal(events[:50]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := st2.Seal(events[50:]); err != nil {
		t.Fatalf("Seal after reopen: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000001.seg")); err != nil {
		t.Fatalf("second segment file: %v", err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if st3.EventCount() != 100 || st3.SegmentCount() != 2 {
		t.Fatalf("got %d events in %d segments, want 100 in 2", st3.EventCount(), st3.SegmentCount())
	}
}

// wireEvents is a fixed event set for the on-disk figures: 20,000 events
// from a generator that depends on nothing but these constants — a
// skewed fleet (a fifth of the events on sixteen loud nodes), nine
// codes, one to three cards a node, pages and jobs on some — in time
// order, a second to a minute apart.
func wireEvents() []console.Event {
	codes := []xid.Code{xid.SingleBitError, xid.OffTheBus, 13, 31, 43, 45, 48, 62, 63}
	state := uint64(2015)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(n))
	}
	sec := int64(1370000000)
	events := make([]console.Event, 0, 20000)
	for len(events) < cap(events) {
		sec += int64(1 + next(60))
		node := topology.NodeID(next(topology.TotalNodes))
		if next(5) == 0 {
			node = topology.NodeID(1201 * (1 + next(16)) % topology.TotalNodes)
		}
		e := console.Event{
			Time:   time.Unix(sec, 0).UTC(),
			Node:   node,
			Serial: gpu.Serial(100000 + 3*int(node) + next(1+int(node)%3)),
			Code:   codes[next(len(codes))],
			Page:   console.NoPage,
		}
		if e.Code == 48 || e.Code == 63 {
			e.Structure, e.StructureValid = gpu.Structure(next(gpu.NumStructures)), true
			e.Page = int32(next(1 << 20))
		}
		if next(3) > 0 {
			e.Job = console.JobID(500000 + next(4000))
		}
		events = append(events, e)
	}
	return events
}

// TestSealedBytesPinned is the store half of the wire-figure gate: the
// fixed set sealed in 8 Ki-event segments occupies exactly these bytes,
// and the directory — every file name and every byte — has exactly this
// digest. bench/ reads store.disk_bytes_per_event off its own corpus;
// this is the figure that repeats, and a change to the segment format,
// the seal or the commit shows here first, on purpose or not.
func TestSealedBytesPinned(t *testing.T) {
	const (
		wantBytes  = 575151
		wantDigest = "7c5b299af2fdca6031c178a738235d7cd89052baabd44c28d43a2da9c543a982"
	)
	events := wireEvents()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(events); lo += 1 << 13 {
		if _, err := st.Seal(events[lo:min(lo+1<<13, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var size int64
	for _, entry := range entries { // ReadDir sorts by name
		body, err := os.ReadFile(filepath.Join(dir, entry.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", entry.Name(), len(body))
		h.Write(body)
		size += int64(len(body))
	}
	if size != st.DiskBytes() {
		t.Fatalf("directory holds %d bytes, DiskBytes says %d", size, st.DiskBytes())
	}
	t.Logf("%d events in %d files: %d bytes, %.4f B/event", len(events), len(entries), size, float64(size)/float64(len(events)))
	if got := fmt.Sprintf("%x", h.Sum(nil)); size != wantBytes || got != wantDigest {
		t.Errorf("sealed directory is %d bytes, digest %s; pinned %d bytes, digest %s", size, got, wantBytes, wantDigest)
	}
}
