package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/xid"
)

// sealThree seals events into a store at dir in three chunks.
func sealInto(t *testing.T, dir string, events []console.Event) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, cut := range [][2]int{{0, len(events) / 3}, {len(events) / 3, 2 * len(events) / 3}, {2 * len(events) / 3, len(events)}} {
		if _, err := st.Seal(events[cut[0]:cut[1]]); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
}

// TestMappedMatchesHeap is the mmap identity: a store opened with
// Mapped answers every query — digest, full materialization, bitmap
// scans, rollups — exactly like the heap-backed open of the same
// directory, while holding a fraction of the resident bytes.
func TestMappedMatchesHeap(t *testing.T) {
	events := simEvents(t)
	dir := t.TempDir()
	sealInto(t, dir, events)

	heap, err := Open(dir)
	if err != nil {
		t.Fatalf("heap open: %v", err)
	}
	mapped, _, err := OpenDir(dir, OpenOptions{Mapped: true})
	if err != nil {
		t.Fatalf("mapped open: %v", err)
	}
	defer mapped.Close()

	if hg, mg := heap.Digest(), mapped.Digest(); hg != mg {
		t.Fatalf("digest mismatch: heap %x mapped %x", hg, mg)
	}
	he, me := heap.Events(), mapped.Events()
	if len(he) != len(me) {
		t.Fatalf("event count mismatch: heap %d mapped %d", len(he), len(me))
	}
	for i := range he {
		if he[i] != me[i] {
			t.Fatalf("event %d mismatch:\n heap %+v\n mmap %+v", i, he[i], me[i])
		}
	}
	for _, code := range heap.Codes() {
		hs, ms := heap.ScanCode(code), mapped.ScanCode(code)
		if len(hs) != len(ms) {
			t.Fatalf("code %v: heap %d events, mapped %d", code, len(hs), len(ms))
		}
		for i := range hs {
			if hs[i] != ms[i] {
				t.Fatalf("code %v event %d mismatch", code, i)
			}
		}
		if heap.CountCode(code) != mapped.CountCode(code) {
			t.Fatalf("code %v popcount mismatch", code)
		}
	}

	spec := RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}
	hd, err := ParallelRollup(heap.Segments(), nil, spec, nil, 1)
	if err != nil {
		t.Fatalf("heap rollup: %v", err)
	}
	md, err := ParallelRollup(mapped.Segments(), nil, spec, nil, 1)
	if err != nil {
		t.Fatalf("mapped rollup: %v", err)
	}
	hj, _ := json.Marshal(hd)
	mj, _ := json.Marshal(md)
	if !bytes.Equal(hj, mj) {
		t.Fatal("rollup docs differ between heap and mapped stores")
	}

	// The memory story: on a platform durable.OS maps on, the mapped
	// store's columns alias the page cache, so its resident heap estimate
	// must be a small fraction of the heap store's.
	if _, unmap, err := durable.OS.Map(filepath.Join(dir, "seg-000000.seg")); err == nil && hostLittleEndian() {
		unmap()
		if mapped.MappedBytes() == 0 {
			t.Fatal("mapped store reports no mapped bytes")
		}
		// Dicts and bitmaps stay on heap either way; the columns and
		// arena — the bulk — must not.
		if hm, mm := heap.MemBytes(), mapped.MemBytes(); mm*2 > hm {
			t.Fatalf("mapped store holds %d heap bytes, heap store %d — expected <1/2", mm, hm)
		}
	}
}

// TestMappedCorruptionDetected: the mapped path validates the digest
// over the mapped bytes before trusting any column, so a flipped byte
// is rejected exactly like the heap path rejects it.
func TestMappedCorruptionDetected(t *testing.T) {
	events := simEvents(t)[:200]
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Seal(events); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	path := filepath.Join(dir, "seg-000000.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapSegmentFile(durable.OS, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mapped open of corrupt file: got %v, want ErrCorrupt", err)
	}
	if _, _, err := OpenDir(dir, OpenOptions{Mapped: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mapped store open: got %v, want ErrCorrupt", err)
	}
}

// TestRollupMatchesEventKernel: folding segments through the column
// kernel and folding the same events through the event kernel render
// byte-identical documents, for every spec shape — the core equivalence
// the /rollup endpoint's correctness rests on.
func TestRollupMatchesEventKernel(t *testing.T) {
	events := simEvents(t)
	dir := t.TempDir()
	sealInto(t, dir, events)
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	segs := st.Segments()

	mid := events[len(events)/2].Time
	specs := []struct {
		spec RollupSpec
		also extra
	}{
		{spec: RollupSpec{Bucket: time.Hour}},
		{spec: RollupSpec{ByCode: true, Bucket: time.Hour}},
		{spec: RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}},
		{spec: RollupSpec{ByCabinet: true, ByCage: true, Bucket: 24 * time.Hour}},
		{spec: RollupSpec{ByNode: true, Bucket: 24 * time.Hour}},
		{RollupSpec{ByCode: true, Bucket: time.Hour}, extra{filterCode: true, code: 13}},
		{RollupSpec{ByCabinet: true, Bucket: time.Hour}, extra{filterCode: true, code: xid.DoubleBitError}},
		{RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}, extra{since: mid}},
		{RollupSpec{ByCode: true, Bucket: time.Minute}, extra{until: mid}},
	}
	for i, c := range specs {
		want, err := RollupEvents(c.also.kept(events, nil), c.spec)
		if err != nil {
			t.Fatalf("spec %d: event kernel: %v", i, err)
		}
		got, err := ParallelRollup(segs, nil, c.spec, c.also.matcher(t, Predicate{Cage: -1}), 1)
		if err != nil {
			t.Fatalf("spec %d: segment kernel: %v", i, err)
		}
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		if !bytes.Equal(wj, gj) {
			t.Fatalf("spec %d: segment rollup diverges from event rollup\nsegment: %s\nevents:  %s", i, gj, wj)
		}
		if got.TotalEvents == 0 && !c.also.filterCode {
			t.Fatalf("spec %d: empty rollup over %d events", i, len(events))
		}
	}

	// A segment/tail split at any point folds to the same document as
	// the unsplit stream.
	spec := RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}
	want, _ := RollupEvents(events, spec)
	cut := 2 * len(events) / 3
	splitDir := t.TempDir()
	sst, err := Open(splitDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sst.Seal(events[:cut]); err != nil {
		t.Fatal(err)
	}
	got, err := ParallelRollup(sst.Segments(), events[cut:], spec, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Fatal("sealed+tail rollup diverges from unsplit stream")
	}
}

// TestRollupValidation rejects sub-second and fractional buckets.
func TestRollupValidation(t *testing.T) {
	if _, err := NewRollup(RollupSpec{Bucket: 0}); err == nil {
		t.Fatal("zero bucket accepted")
	}
	if _, err := NewRollup(RollupSpec{Bucket: 500 * time.Millisecond}); err == nil {
		t.Fatal("sub-second bucket accepted")
	}
	if _, err := NewRollup(RollupSpec{Bucket: 1500 * time.Millisecond}); err == nil {
		t.Fatal("fractional-second bucket accepted")
	}
}

// TestTopMatchesEventKernel: the bitmap-walking segment kernel and the
// event kernel rank identically for every dimension.
func TestTopMatchesEventKernel(t *testing.T) {
	events := simEvents(t)
	dir := t.TempDir()
	sealInto(t, dir, events)
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	segs := st.Segments()

	mid := events[len(events)/2].Time
	specs := []struct {
		spec TopSpec
		also extra
	}{
		{spec: TopSpec{By: TopByNode, K: 20}},
		{spec: TopSpec{By: TopBySerial, K: 10}},
		{spec: TopSpec{By: TopByCode, K: 0}},
		{TopSpec{By: TopByNode, K: 10}, extra{filterCode: true, code: xid.SingleBitError}},
		{TopSpec{By: TopBySerial, K: 10}, extra{filterCode: true, code: 13}},
		{TopSpec{By: TopByNode, K: 20}, extra{since: mid}},
		{TopSpec{By: TopByCode, K: 5}, extra{until: mid}},
	}
	for i, c := range specs {
		want, err := TopEvents(c.also.kept(events, nil), c.spec)
		if err != nil {
			t.Fatalf("spec %d: event kernel: %v", i, err)
		}
		got, err := ParallelTop(segs, nil, c.spec, c.also.matcher(t, Predicate{Cage: -1}), 1)
		if err != nil {
			t.Fatalf("spec %d: segment kernel: %v", i, err)
		}
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		if !bytes.Equal(wj, gj) {
			t.Fatalf("spec %d: segment top diverges from event top\nsegment: %s\nevents:  %s", i, gj, wj)
		}
	}

	// Cross-check one ranking against a straight count.
	counts := make(map[string]int64)
	for _, e := range events {
		counts[e.Code.String()]++
	}
	doc, err := ParallelTop(segs, nil, TopSpec{By: TopByCode, K: 0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, card := range doc.Cards {
		if counts[card.Code] != card.Count {
			t.Fatalf("code %s: card count %d, straight count %d", card.Code, card.Count, counts[card.Code])
		}
		total += card.Count
	}
	if total != int64(len(events)) {
		t.Fatalf("cards cover %d events, stream has %d", total, len(events))
	}
	if _, err := NewTop(TopSpec{By: "cabinet"}); err == nil {
		t.Fatal("bad top dimension accepted")
	}
}

// TestPreparePublish: a prepared segment is durable on disk but
// invisible until Publish, and a store reopened between the two loads
// it — the crash-window shape the sealed floor arithmetic covers.
func TestPreparePublish(t *testing.T) {
	events := simEvents(t)[:500]
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	p, err := st.Prepare(events)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if st.EventCount() != 0 || st.SegmentCount() != 0 {
		t.Fatalf("prepared segment already visible: %d events in %d segments", st.EventCount(), st.SegmentCount())
	}
	// A reopen (the crash shape) sees the committed file.
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st2.EventCount() != len(events) {
		t.Fatalf("reopened store loads %d events, want %d", st2.EventCount(), len(events))
	}
	st.Publish(p)
	if st.EventCount() != len(events) || st.SegmentCount() != 1 {
		t.Fatalf("published store: %d events in %d segments", st.EventCount(), st.SegmentCount())
	}
	if st.Segments()[0].Len() != len(events) {
		t.Fatal("published segment length mismatch")
	}
}
