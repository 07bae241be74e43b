package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// shapeSegment is a small segment with every section populated: 70 rows
// (so the last bitmap word has bits past the last row), three nodes and
// four cards, two codes — the second two varint bytes long — with pages
// and jobs in the arena.
func shapeSegment(t testing.TB) *Segment {
	t.Helper()
	b := NewBuilder(70)
	for i := 0; i < 70; i++ {
		ev := console.Event{
			Time:   time.Unix(1370000000+int64(i), 0).UTC(),
			Node:   topology.NodeID(3 + 4*(i%3)),
			Serial: gpu.Serial(100 + i%4),
			Code:   []xid.Code{13, 79}[i%2],
			Page:   console.NoPage,
			Job:    console.JobID(500 + i),
		}
		if ev.Code == 79 {
			ev.Page, ev.Structure, ev.StructureValid = int32(i), gpu.DeviceMemory, true
		}
		if err := b.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// segmentParts is a sealed file's body (digest stripped) with the offsets
// of its column layout, its dictionary and its bitmap section.
type segmentParts struct {
	body    []byte
	l       columnLayout
	bitmaps int // where the bitmap section's code count starts
}

func partsOf(seg *Segment) segmentParts {
	data := seg.Marshal(nil)
	sp := segmentParts{body: bytes.Clone(data[:len(data)-sha256.Size]), l: layoutFor(seg.Len(), len(seg.arena))}
	p := sp.l.tail
	skip := func() uint64 {
		v, m := binary.Uvarint(sp.body[p:])
		p += m
		return v
	}
	for nnodes := skip(); nnodes > 0; nnodes-- {
		skip()
		for cnt := skip(); cnt > 0; cnt-- {
			skip()
		}
	}
	sp.bitmaps = p
	return sp
}

// reseal puts a fresh digest on body: what a buggy writer could leave
// behind a matching one.
func reseal(body []byte) []byte {
	digest := sha256.Sum256(body)
	return append(bytes.Clone(body), digest[:]...)
}

// splice replaces the byte at body[at] with repl.
func splice(body []byte, at int, repl ...byte) []byte {
	return append(append(body[:at:at], repl...), body[at+1:]...)
}

// overlong rewrites the one-byte varint at body[at] in two bytes: the same
// value, not in its shortest form.
func overlong(body []byte, at int) []byte { return splice(body, at, body[at]|0x80, 0) }

// firstBitmapWord is the offset of the first bitmap's first word (one
// byte of code and one of width precede it in a small segment).
func (sp segmentParts) firstBitmapWord() int { return sp.bitmaps + 1 + 1 + 1 }

// TestStructureChecked: every structural rejection parseSegment makes,
// forged behind a fresh digest, is refused with ErrCorrupt and its own
// reason — node range, arena offsets, card index, padding, the varints'
// shortest form, the bitmaps' order, width, length, rows and coverage,
// and trailing bytes. The writer produces none of them.
func TestStructureChecked(t *testing.T) {
	seg := shapeSegment(t)
	good := partsOf(seg)
	if back, err := Unmarshal(reseal(good.body)); err != nil || !bytes.Equal(back.Marshal(nil), seg.Marshal(nil)) {
		t.Fatalf("the unforged file does not round-trip: %v", err)
	}
	n := seg.Len()
	le := binary.LittleEndian
	rows := []struct {
		name, want string
		forge      func(sp segmentParts) []byte
	}{
		{"a node id out of range", "node id", func(sp segmentParts) []byte {
			le.PutUint32(sp.body[sp.l.nodes+4*5:], topology.TotalNodes)
			return sp.body
		}},
		{"a card index past its node's serials", "card index", func(sp segmentParts) []byte {
			sp.body[sp.l.cards+7] = 9
			return sp.body
		}},
		{"offsets that start past the arena", "do not span", func(sp segmentParts) []byte {
			le.PutUint32(sp.body[sp.l.offs:], 1)
			return sp.body
		}},
		{"offsets that stop short of the arena", "do not span", func(sp segmentParts) []byte {
			le.PutUint32(sp.body[sp.l.offs+4*n:], le.Uint32(sp.body[sp.l.offs+4*n:])-1)
			return sp.body
		}},
		{"offsets that go back", "not monotonic", func(sp segmentParts) []byte {
			le.PutUint32(sp.body[sp.l.offs+4*3:], le.Uint32(sp.body[sp.l.offs+4*4:])+1)
			return sp.body
		}},
		{"a non-zero header pad", "padding", func(sp segmentParts) []byte {
			sp.body[segHeaderLen+2] = 1
			return sp.body
		}},
		{"a non-zero column pad", "padding", func(sp segmentParts) []byte {
			sp.body[sp.l.offs-1] = 1 // 70 card bytes leave two of padding
			return sp.body
		}},
		// The dictionary opens 3 (nodes), 3 (node id), 4 (serials), 100.
		{"a dictionary size in a longer form than it needs", "dictionary truncated", func(sp segmentParts) []byte {
			return overlong(sp.body, sp.l.tail)
		}},
		{"a node id in a longer form than it needs", "dictionary node invalid", func(sp segmentParts) []byte {
			return overlong(sp.body, sp.l.tail+1)
		}},
		{"a serial count in a longer form than it needs", "dictionary count invalid", func(sp segmentParts) []byte {
			return overlong(sp.body, sp.l.tail+2)
		}},
		{"more serials than a card index can name", "dictionary count invalid", func(sp segmentParts) []byte {
			return splice(sp.body, sp.l.tail+2, binary.AppendUvarint(nil, maxCardsPerNode+1)...)
		}},
		{"a serial in a longer form than it needs", "dictionary serial invalid", func(sp segmentParts) []byte {
			return overlong(sp.body, sp.l.tail+3)
		}},
		{"a serial past 32 bits", "dictionary serial invalid", func(sp segmentParts) []byte {
			return splice(sp.body, sp.l.tail+3, binary.AppendUvarint(nil, 1<<32)...)
		}},
		// The bitmap section opens 2 (codes), 26 (code 13), 2 (words).
		{"a bitmap count in a longer form than it needs", "bitmap section truncated", func(sp segmentParts) []byte {
			return overlong(sp.body, sp.bitmaps)
		}},
		{"a bitmap code in a longer form than it needs", "bitmap code invalid", func(sp segmentParts) []byte {
			return overlong(sp.body, sp.bitmaps+1)
		}},
		{"a bitmap width in a longer form than it needs", "bitmap width invalid", func(sp segmentParts) []byte {
			return overlong(sp.body, sp.bitmaps+2)
		}},
		{"bitmap codes out of order", "bitmap code invalid", func(sp segmentParts) []byte {
			sp.body[sp.firstBitmapWord()+16] = 2 * 13 // the second code, 79, made the first's
			return sp.body
		}},
		{"a bitmap of the wrong width", "bitmap width", func(sp segmentParts) []byte {
			sp.body[sp.firstBitmapWord()-1]++
			return sp.body
		}},
		{"bitmap words cut short", "words truncated", func(sp segmentParts) []byte {
			return sp.body[:len(sp.body)-1] // the second code's longer varint keeps the count in bounds
		}},
		{"more bitmaps than the section holds", "overrun", func(sp segmentParts) []byte {
			sp.body[sp.bitmaps] = 100
			return sp.body
		}},
		{"a bit on another code's row", "marks a row of another code", func(sp segmentParts) []byte {
			w := sp.firstBitmapWord() // code 13's rows are the even ones
			le.PutUint64(sp.body[w:], le.Uint64(sp.body[w:])|1<<1)
			return sp.body
		}},
		{"a bit past the last row", "marks a row of another code", func(sp segmentParts) []byte {
			w := sp.firstBitmapWord() + 8 // rows 64..127; 70 is past the last
			le.PutUint64(sp.body[w:], le.Uint64(sp.body[w:])|1<<(70-64))
			return sp.body
		}},
		{"a row no bitmap marks", "mark 69 of 70 rows", func(sp segmentParts) []byte {
			w := sp.firstBitmapWord()
			le.PutUint64(sp.body[w:], le.Uint64(sp.body[w:])&^1)
			return sp.body
		}},
		{"trailing bytes", "trailing bytes", func(sp segmentParts) []byte {
			return append(sp.body, 0)
		}},
	}
	for _, row := range rows {
		_, err := Unmarshal(reseal(row.forge(partsOf(seg))))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: got %v, want ErrCorrupt (%s)", row.name, err, row.want)
		}
	}
}

// FuzzSegmentDecode: arbitrary bytes never panic the parser, and what it
// accepts marshals back to exactly those bytes; it rejects anything else
// as ErrCorrupt (an unknown version aside, which is not corruption but a
// newer writer). Each input is tried as is and re-sealed under a fresh
// SHA-256 trailer, so mutations reach the structure checks rather than
// stopping at the digest.
func FuzzSegmentDecode(f *testing.F) {
	seg := shapeSegment(f)
	f.Add(seg.Marshal(nil))
	sp := partsOf(seg)
	f.Add(reseal(append(sp.body, 0)))
	f.Add(reseal(sp.body[:sp.bitmaps]))
	f.Add([]byte("TITANSEG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			got, err := Unmarshal(data)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "unsupported segment version") {
					t.Fatalf("rejected with %v, not ErrCorrupt", err)
				}
				return
			}
			if back := got.Marshal(nil); !bytes.Equal(back, data) {
				t.Fatalf("accepted %d bytes marshal back to %d", len(data), len(back))
			}
		}
		check(data)
		if len(data) >= sha256.Size {
			check(reseal(data[:len(data)-sha256.Size]))
		}
	})
}
