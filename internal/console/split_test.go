package console

import (
	"bytes"
	"testing"

	"titanre/internal/topology"
)

func TestLineNode(t *testing.T) {
	valid := []byte("[2013-03-01 00:00:00] c3-2c1s4n2 GPU XID 31: fault")
	node, ok := LineNode(valid)
	if !ok {
		t.Fatalf("LineNode(%q) not ok", valid)
	}
	if got := topology.CNameOf(node); got != "c3-2c1s4n2" {
		t.Fatalf("LineNode resolved %q, want c3-2c1s4n2", got)
	}
	for _, line := range []string{
		"",
		"short",
		"[2013-03-01 00:00:00] ",
		"[2013-03-01 00:00:00] nonsense here",
		"no timestamp c3-2c1s4n2 GPU XID 31",
		"[2013-03-01 00:00:00]c3-2c1s4n2 missing space",
	} {
		if _, ok := LineNode([]byte(line)); ok {
			t.Errorf("LineNode(%q) unexpectedly ok", line)
		}
	}
}

func TestMaskRoundTrip(t *testing.T) {
	mask := make([]uint64, 3)
	for _, idx := range []int{0, 1, 63, 64, 127, 130} {
		mask[idx/64] |= 1 << (idx % 64)
	}
	got := MaskFromBytes(MaskBytes(mask))
	if MaskCount(got) != 6 {
		t.Fatalf("round-trip popcount = %d, want 6", MaskCount(got))
	}
	want := []int32{0, 1, 63, 64, 127, 130}
	pos := MaskPositions(got)
	if len(pos) != len(want) {
		t.Fatalf("positions = %v, want %v", pos, want)
	}
	for i := range want {
		if pos[i] != want[i] {
			t.Fatalf("positions = %v, want %v", pos, want)
		}
	}
	if len(MaskBytes(nil)) != 0 {
		t.Fatal("MaskBytes(nil) not empty")
	}
	if MaskCount(MaskFromBytes(nil)) != 0 {
		t.Fatal("MaskFromBytes(nil) not empty")
	}
}

// reassemble rebuilds the original batch from per-owner bodies and
// masks: each sub-batch line lands at its original index.
func reassemble(t *testing.T, bodies [][]byte, masks [][]uint64, lines int) []byte {
	t.Helper()
	segs := make([][]byte, lines)
	for o := range bodies {
		pos := MaskPositions(masks[o])
		j := 0
		for off := 0; off < len(bodies[o]); j++ {
			end := off
			for end < len(bodies[o]) && bodies[o][end] != '\n' {
				end++
			}
			if end < len(bodies[o]) {
				end++
			}
			if j >= len(pos) {
				t.Fatalf("owner %d body has more lines than mask bits (%d)", o, len(pos))
			}
			segs[pos[j]] = bodies[o][off:end]
			off = end
		}
		if j != len(pos) {
			t.Fatalf("owner %d body has %d lines, mask has %d bits", o, j, len(pos))
		}
	}
	var out []byte
	for i, seg := range segs {
		if seg == nil {
			t.Fatalf("line %d assigned to no owner", i)
		}
		out = append(out, seg...)
	}
	return out
}

func checkSplit(t *testing.T, data []byte, n int, owner func([]byte, int) int) {
	t.Helper()
	bodies, masks, counts, lines := SplitBatch(data, n, owner)

	// Line count matches the ingest pipeline's counting rule.
	wantLines := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		wantLines++
	}
	if lines != wantLines {
		t.Fatalf("lines = %d, want %d", lines, wantLines)
	}

	// Masks partition [0, lines): every index in exactly one mask, and
	// counts agree with popcounts.
	seen := make([]int, lines)
	total := 0
	for o := range masks {
		if MaskCount(masks[o]) != counts[o] {
			t.Fatalf("owner %d: popcount %d != count %d", o, MaskCount(masks[o]), counts[o])
		}
		total += counts[o]
		for _, p := range MaskPositions(masks[o]) {
			if int(p) >= lines {
				t.Fatalf("owner %d: mask bit %d out of range (%d lines)", o, p, lines)
			}
			seen[p]++
		}
	}
	if total != lines {
		t.Fatalf("counts sum to %d, want %d", total, lines)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("line %d owned %d times", i, c)
		}
	}

	// Concatenating the sub-batches in mask order reproduces the
	// original batch byte for byte.
	if got := reassemble(t, bodies, masks, lines); !bytes.Equal(got, data) {
		t.Fatalf("reassembled batch differs:\n got %q\nwant %q", got, data)
	}
}

func TestSplitBatch(t *testing.T) {
	mod := func(line []byte, idx int) int { return idx }
	cases := []string{
		"a\nb\nc\n",
		"a\nb\nc", // unterminated final line
		"\n\n\n",  // empty records count as lines
		"one line no nl",
		"\r\n mixed \r\nterminators\r\n",
		"",
	}
	for _, data := range cases {
		for n := 1; n <= 4; n++ {
			checkSplit(t, []byte(data), n, mod)
		}
	}
	// Degenerate owner functions: out-of-range results are clamped.
	checkSplit(t, []byte("a\nb\nc\n"), 3, func(_ []byte, idx int) int { return -idx * 7 })
	checkSplit(t, []byte("a\nb\nc\n"), 3, func(_ []byte, idx int) int { return idx*13 + 100 })
}

// FuzzSplitBatch is the router's correctness backstop: for arbitrary
// batch bytes and any owner assignment, the per-replica sub-batches
// concatenated back in mask order must equal the original batch byte
// for byte, and the masks must partition the line index space.
func FuzzSplitBatch(f *testing.F) {
	f.Add([]byte("a\nb\nc\n"), uint8(2), uint8(0))
	f.Add([]byte("[2013-03-01 00:00:00] c3-2c1s4n2 GPU XID 31: fault\n"), uint8(3), uint8(1))
	f.Add([]byte("\n\n"), uint8(1), uint8(2))
	f.Add([]byte("no newline"), uint8(4), uint8(3))
	f.Add([]byte{0, '\n', 0xff, '\r', '\n'}, uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, nOwners, salt uint8) {
		n := int(nOwners)%5 + 1
		owner := func(line []byte, idx int) int {
			h := uint32(salt)
			for _, b := range line {
				h = h*31 + uint32(b)
			}
			return int(h+uint32(idx)) % n
		}
		checkSplit(t, data, n, owner)
	})
}
