package console

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseRawLine asserts the SEC parser never panics, whatever a lossy
// console feed throws at it. The seed corpus covers every corruption
// category the ingest injector produces: truncated lines, torn fragments,
// garbled annotations, CRLF tails, control bytes, and invalid UTF-8.
func FuzzParseRawLine(f *testing.F) {
	whole := sampleEvent().Raw()
	otb := sampleEvent()
	otb.StructureValid = false
	otbLine := otb.Raw()

	seeds := []string{
		whole,
		otbLine,
		"",
		"   ",
		"plain chatter without a header",
		whole[:len(whole)/2], // truncated
		whole[len(whole)/2:], // torn tail
		whole[:30],           // torn head
		strings.Replace(whole, "serial=1234", "serial=zz9q", 1), // garbled annotation
		strings.Replace(whole, "page=777", "page=x0x0x", 1),
		whole + "\r",                         // CRLF tail
		"\x00\x01\x07" + whole,               // control-byte prefix
		whole[:20] + "\xff\xfe" + whole[20:], // invalid UTF-8 mid-line
		"[2014-02-03 11:52:99] c3-2c1s4n2 kernel: NVRM: Xid (0000:04:00): 48, msg",              // bad timestamp
		"[2014-02-03 11:52:07] not-a-node kernel: NVRM: Xid (0000:04:00): 48, msg",              // bad node
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:04:00): 13, double bit error", // code mismatch
		"[nonsense] [more] kernel: NVRM:",
		strings.Repeat("a\tb\t", 50),
		strings.Replace(whole, "c3-2c1s4n2", "c8-0c0s0n0", 1),                    // one column past the machine
		strings.Replace(whole, "c3-2c1s4n2", "c18446744073709551615-0c0s0n0", 1), // wraps an int
	}
	for _, s := range seeds {
		f.Add(s)
	}

	c := NewCorrelator()
	var d Decoder
	f.Fuzz(func(t *testing.T, line string) {
		ev, v := c.Classify(line)
		if v == VerdictEvent && ev.Time.IsZero() {
			t.Errorf("classified as event but has zero time: %q", line)
		}
		// titand indexes a dense per-node table with this.
		if v == VerdictEvent && !ev.Node.Valid() {
			t.Errorf("classified as event on node %d, outside the machine: %q", ev.Node, line)
		}
		if fastEv, claimed := d.DecodeRawBytes([]byte(line)); claimed && !fastEv.Node.Valid() {
			t.Errorf("fast path decoded node %d, outside the machine: %q", fastEv.Node, line)
		}
		ev2, ok := c.ParseLine(line)
		if ok != (v == VerdictEvent) {
			t.Errorf("ParseLine ok=%v disagrees with Classify verdict %v: %q", ok, v, line)
		}
		if ok && ev2 != ev {
			t.Errorf("ParseLine and Classify events differ for %q", line)
		}
	})
}

// FuzzDecodeEquivalence is the differential gate over the fast-path
// decoder: whenever DecodeRawBytes claims a line, the authoritative regex
// path must classify the exact same bytes as VerdictEvent with the exact
// same fields. Lines the fast path declines carry no obligation — they
// fall through to the regex path in production, so any verdict is fine.
//
// The same input then goes through a walk whose decoder keeps its
// renderings (the journal's frames): what is left in the buffer is
// exactly one record per decoded event, in order — room for the header,
// sealed, then AppendRaw(ev) — whichever path decoded it, and a line
// that was refused, or decoded to nothing, leaves no byte behind.
func FuzzDecodeEquivalence(f *testing.F) {
	whole := sampleEvent().Raw()
	otb := sampleEvent()
	otb.Code = -2 // xid.OffTheBus, avoiding the import in a seed helper
	otb.StructureValid = false
	otb.Page = NoPage
	seeds := []string{
		whole,
		otb.Raw(),
		"",
		whole + "\r",
		strings.Replace(whole, "serial=1234", "serial=01234", 1), // leading zero
		strings.Replace(whole, " job=42", " job=-42", 1),
		strings.Replace(whole, "2014-02-03", "2014-02-30", 1), // normalizing date
		strings.Replace(whole, ": 48,", ": 49,", 1),           // unknown code
		whole[:len(whole)/2],
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: GPU at 0000:02:00.0 has fallen off the bus. serial=1 job=0",
		strings.Replace(whole, "(0000:02:00.0)", "(0000:04:00.0)", 1),                                            // foreign bus id: regex path
		strings.Replace(whole, "serial=1234 job=42", "job=42 serial=1234", 1) + "\r\n\n" + whole + "\nchatter\n", // a batch
		string(mixedLog(f, 9)),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	c := NewCorrelator()
	var d Decoder
	seal := func(rec []byte) { rec[0], rec[1], rec[2] = '<', byte(len(rec)), '>' }
	keep := Decoder{Room: 3, Seal: seal}
	f.Fuzz(func(t *testing.T, line string) {
		keep.Buf = append(keep.Buf[:0], "kept"...)
		events, _ := NewCorrelator().AppendBytes(nil, nil, []byte(line), false, &keep)
		want := []byte("kept")
		for _, ev := range events {
			at := len(want)
			want = ev.AppendRaw(append(want, 0, 0, 0))
			seal(want[at:])
		}
		if !bytes.Equal(keep.Buf, want) {
			t.Fatalf("walk over %q kept\n%q\nwant a record per event:\n%q", line, keep.Buf, want)
		}

		fastEv, claimed := d.DecodeRawBytes([]byte(line))
		if len(d.Buf) != 0 {
			t.Fatalf("a decoder that keeps nothing holds %q after %q", d.Buf, line)
		}
		if !claimed {
			return
		}
		slowEv, v := c.Classify(line)
		if v != VerdictEvent {
			t.Fatalf("fast path claimed %q but Classify verdict is %v", line, v)
		}
		if fastEv != slowEv {
			t.Fatalf("decoder divergence on %q:\nfast %+v\nslow %+v", line, fastEv, slowEv)
		}
	})
}
