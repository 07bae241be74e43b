package store

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// The seal path's oracles. Builder interns cards through a dense table,
// the bitmaps are built through a code table and Store.Prepare recycles
// its builder; none of that may show in a sealed byte. Each digest below
// is the SHA-256 of the bytes the map-based builder produced for the same
// events (this file, run at the commit before the tables went in).

func sealEvent(sec int64, node int, serial uint32, code xid.Code) console.Event {
	return console.Event{
		Time: time.Unix(1370000000+sec, 0).UTC(), Node: topology.NodeID(node),
		Serial: gpu.Serial(serial), Code: code, Page: console.NoPage,
	}
}

func TestSealBytesMatchMapBuilder(t *testing.T) {
	// Cards first seen out of serial order, on nodes first seen out of
	// node order, and seen again after other nodes' rows.
	var outOfOrder []console.Event
	for i, row := range [][2]int{{9000, 77}, {12, 5}, {9000, 3}, {19199, 8}, {12, 9}, {9000, 77}, {0, 1}, {12, 5}, {9000, 50}, {19199, 8}, {0, 0}, {12, 7}} {
		outOfOrder = append(outOfOrder, sealEvent(int64(i), row[0], uint32(row[1]), 13))
	}
	// One node at exactly the dictionary's bound, every card seen twice.
	var full []console.Event
	for i := 0; i < 2*maxCardsPerNode; i++ {
		full = append(full, sealEvent(int64(i), 4242, uint32(1000+(i*7)%maxCardsPerNode), 48))
	}
	// Off-the-bus (-2), codes no SEC rule knows, and both ends of int16.
	var codes []console.Event
	for i, c := range []xid.Code{31, xid.OffTheBus, 9999, 13, math.MinInt16, 7, xid.OffTheBus, math.MaxInt16, 0, 31, -1} {
		ev := sealEvent(int64(i), 100+i%3, uint32(i%2), c)
		ev.Job = console.JobID(i - 3)
		codes = append(codes, ev)
	}
	for _, tc := range []struct {
		name   string
		events []console.Event
		want   string
	}{
		{"out-of-order first-seen serials", outOfOrder, "08debf48d0b1a0625afd18c980f1518c27e2e533722929661885013385f127a9"},
		{"a node at maxCardsPerNode", full, "859cf3230020427ddaefcfabd717b4cd283654eef6b49c3ea75817856ec51b9c"},
		{"negative and never-seen codes", codes, "2f10fc5307645c4f11f206601272ffa1fb9ca4cd4c659bd6b5f46c002a555343"},
		{"the wire fixture", wireEvents()[:1<<13], "3969ec1485d8f4865dcc8bafdf4cbb16d99b98df4b25067580b62f92b420b6dc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(len(tc.events))
			for _, ev := range tc.events {
				if err := b.Append(ev); err != nil {
					t.Fatal(err)
				}
			}
			seg, err := b.Seal()
			if err != nil {
				t.Fatal(err)
			}
			data := seg.Marshal(nil)
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
				t.Errorf("marshalled segment (%d bytes) digests to %s, the map-based builder's to %s", len(data), got, tc.want)
			}
			back, err := Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := back.AppendEvents(nil); !slices.Equal(got, tc.events) {
				t.Error("the segment does not read back as the events appended")
			}
		})
	}

	// The 256th serial on the full node is still refused.
	b := NewBuilder(len(full) + 1)
	for _, ev := range full {
		if err := b.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Append(sealEvent(0, 4242, 5, 48)); err == nil {
		t.Error("a 256th distinct serial on one node was accepted")
	}
	if err := b.Append(full[3]); err != nil {
		t.Errorf("a serial the full node already holds was refused: %v", err)
	}
}

// TestPrepareRecyclesBuilder: three Prepare calls of different sizes on a
// mapped store run through one recycled builder, and each file is, byte
// for byte, what a fresh builder wrote — no column, dictionary entry or
// marshalled byte of segment n shows in segment n+1 — while a reader
// folds segment n as n+1 is built (under -race: a recycled array must be
// nobody's any more). A store whose segments stay on the heap recycles
// nothing: the segment's columns are the builder's.
func TestPrepareRecyclesBuilder(t *testing.T) {
	events := wireEvents()
	cuts := []int{0, 9000, 9100, 20000} // large, small, large: the arrays shrink and regrow
	want := []string{"e992d7c7f2e112d591181614930bde85235363deb1187f0387fae82572f00e2e", "e0a0ff3899b7ff0ccaa5de3a6c34291de6d753cfded6d351d28381c9c6dbc00a", "ab23f3b90ca7d8d45780171e451d7a51ac4ea56d158d092bfaa39284977b4244"}

	st, _, err := OpenDir(t.TempDir(), OpenOptions{Mapped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var readers sync.WaitGroup
	for i := range want {
		chunk := events[cuts[i]:cuts[i+1]]
		p, err := st.Prepare(chunk)
		if err != nil {
			t.Fatal(err)
		}
		seg := st.Publish(p)
		if seg.Mapped() != (st.spare.Load() != nil) {
			t.Fatalf("segment %d mapped=%v, builder kept=%v: the builder is recycled exactly when the segment is not its own", i, seg.Mapped(), st.spare.Load() != nil)
		}
		data, err := os.ReadFile(filepath.Join(st.Dir(), fmt.Sprintf("seg-%06d.seg", i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[i] {
			t.Errorf("segment %d (%d events, %d bytes) digests to %s, a fresh builder's to %s", i, len(chunk), len(data), got, want[i])
		}
		readers.Add(1)
		go func() { // folds segment i while the loop builds i+1
			defer readers.Done()
			for round := 0; round < 20; round++ {
				if got := seg.AppendEvents(nil); !slices.Equal(got, chunk) {
					t.Errorf("segment %d changed under its reader (round %d)", i, round)
					return
				}
			}
		}()
	}
	readers.Wait()

	heap, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, err := heap.Seal(events[:500])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heap.Seal(events[500:1500]); err != nil {
		t.Fatal(err)
	}
	if heap.spare.Load() != nil {
		t.Error("a heap-backed store kept a builder whose arrays its segment still holds")
	}
	if got := first.AppendEvents(nil); !slices.Equal(got, events[:500]) {
		t.Error("a heap-kept segment changed when the next one was sealed")
	}
}
