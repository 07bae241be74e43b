package console

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// randomEvent builds an arbitrary-but-encodable event from fuzz inputs,
// shared by the encode and decode property tests.
func randomEvent(nodeRaw, serial uint32, job int64, sec int64, pageRaw int32, structRaw uint8) Event {
	codes := []xid.Code{13, 31, 32, 38, 42, 43, 44, 45, 48, 56, 57, 58, 59, 62, 63, 64, 65, xid.OffTheBus}
	e := Event{
		Time:   time.Unix(1371000000+sec%50000000, 0).UTC(),
		Node:   topology.NodeID(nodeRaw % topology.TotalNodes),
		Serial: gpu.Serial(serial),
		Code:   codes[int(nodeRaw)%len(codes)],
		Page:   NoPage,
		// The fast decoder bails on numbers wider than 18 digits (they
		// fall back to the regex path), so the round-trip property is
		// stated over jobs the fast path claims.
		Job: JobID(job % 1_000_000_000_000_000_000),
	}
	if structRaw%3 == 0 {
		e.StructureValid = true
		e.Structure = gpu.Structure(int(structRaw/3) % gpu.NumStructures)
	}
	if pageRaw >= 0 && pageRaw%2 == 0 {
		e.Page = pageRaw
	}
	return e
}

// fmtRaw is the reference renderer AppendRaw replaced: the original
// fmt-based implementation, kept here verbatim as the oracle.
func fmtRaw(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s kernel: NVRM: ", e.Time.UTC().Format("2006-01-02 15:04:05"), e.Location().CName())
	switch e.Code {
	case xid.OffTheBus:
		b.WriteString("GPU at 0000:02:00.0 has fallen off the bus.")
	default:
		fmt.Fprintf(&b, "Xid (0000:02:00.0): %d, %s", int(e.Code), rawDescription(e))
	}
	fmt.Fprintf(&b, " serial=%d job=%d", uint32(e.Serial), int64(e.Job))
	if e.StructureValid {
		fmt.Fprintf(&b, " unit=%s", tokenOf(e.Structure))
	}
	if e.Page >= 0 {
		fmt.Fprintf(&b, " page=%d", e.Page)
	}
	return b.String()
}

func TestAppendRawMatchesFmtReference(t *testing.T) {
	f := func(nodeRaw, serial uint32, job int64, sec int64, pageRaw int32, structRaw uint8) bool {
		e := randomEvent(nodeRaw, serial, job, sec, pageRaw, structRaw)
		return string(e.AppendRaw(nil)) == fmtRaw(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The fixed sample too, plus negative job and unknown code edges.
	e := sampleEvent()
	if got := e.Raw(); got != fmtRaw(e) {
		t.Errorf("Raw() = %q, want %q", got, fmtRaw(e))
	}
	e.Job = -7
	e.Code = xid.Code(999)
	if got := e.Raw(); got != fmtRaw(e) {
		t.Errorf("Raw() = %q, want %q", got, fmtRaw(e))
	}
}

func TestDecodeRawBytesRoundTrip(t *testing.T) {
	var d Decoder
	f := func(nodeRaw, serial uint32, job int64, sec int64, pageRaw int32, structRaw uint8) bool {
		e := randomEvent(nodeRaw, serial, job, sec, pageRaw, structRaw)
		got, ok := d.DecodeRawBytes(e.AppendRaw(nil))
		return ok && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRawBytesAllCodes(t *testing.T) {
	var d Decoder
	for _, info := range xid.All() {
		if info.Code == xid.SingleBitError {
			continue // never rendered on the console
		}
		e := sampleEvent()
		e.Code = info.Code
		if info.Code != xid.DoubleBitError && info.Code != xid.ECCPageRetirement && info.Code != xid.ECCPageRetirementAlt {
			e.StructureValid = false
			e.Page = NoPage
		}
		got, ok := d.DecodeRawBytes([]byte(e.Raw()))
		if !ok {
			t.Errorf("code %v: fast path declined canonical line %q", info.Code, e.Raw())
			continue
		}
		if got != e {
			t.Errorf("code %v: decode mismatch\n got %+v\nwant %+v", info.Code, got, e)
		}
	}
}

// TestDecodeFallsBackOnDeviation: every non-canonical variation must be
// declined by the fast path, and the regex path must still produce its
// usual verdict — the pair (decline, Classify) is what keeps quarantine
// behavior bit-for-bit unchanged.
func TestDecodeFallsBackOnDeviation(t *testing.T) {
	var d Decoder
	c := NewCorrelator()
	whole := sampleEvent().Raw()
	cases := []struct {
		name    string
		line    string
		verdict Verdict
	}{
		{"reordered annotations", "[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, An uncorrectable double bit error (DBE) has been detected on GPU. job=42 serial=1234 unit=framebuffer page=777", VerdictEvent},
		{"leading-zero serial", strings.Replace(whole, "serial=1234", "serial=01234", 1), VerdictEvent},
		{"leading-zero cname", strings.Replace(whole, "c3-2c1s4n2", "c03-2c1s4n2", 1), VerdictEvent},
		{"foreign bus id", strings.Replace(whole, "(0000:02:00.0)", "(0000:04:00.0)", 1), VerdictEvent},
		{"double space", strings.Replace(whole, " serial=", "  serial=", 1), VerdictEvent},
		{"unknown code", strings.Replace(whole, ": 48,", ": 49,", 1), VerdictChatter},
		{"bad month", strings.Replace(whole, "2014-02-03", "2014-02-30", 1), VerdictBadTime},
		{"out-of-bounds node", strings.Replace(whole, "c3-2c1s4n2", "c3-2c1s4n9", 1), VerdictBadNode},
		{"garbled serial", strings.Replace(whole, "serial=1234", "serial=12z4", 1), VerdictBadAnnotation},
		{"unknown unit", strings.Replace(whole, "unit=framebuffer", "unit=bogus", 1), VerdictBadAnnotation},
		// Truncation mid-description keeps the header and the rule-matching
		// Xid prefix, so the regex path still yields an event (with default
		// annotations) — the fast path must decline and defer to it.
		{"truncated mid-description", whole[:len(whole)/2], VerdictEvent},
		{"truncated mid-header", whole[:15], VerdictNoHeader},
		{"torn tail", whole[len(whole)/2:], VerdictNoHeader},
		{"chatter", "[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: loading driver", VerdictChatter},
		{"code mismatch", strings.Replace(whole, "double bit error (DBE)", "Xid (0000:02:00.0): 13, fake", 1), VerdictEvent},
	}
	for _, tc := range cases {
		if _, ok := d.DecodeRawBytes([]byte(tc.line)); ok {
			t.Errorf("%s: fast path wrongly claimed %q", tc.name, tc.line)
		}
		if _, v := c.Classify(tc.line); v != tc.verdict {
			t.Errorf("%s: Classify verdict %v, want %v for %q", tc.name, v, tc.verdict, tc.line)
		}
	}
}

// TestFastSlowParseEquivalence parses a mixed log — canonical events,
// chatter, malformed records, CRLF endings — through the fast-path
// correlator and a regex-only one; events and every counter must agree.
func TestFastSlowParseEquivalence(t *testing.T) {
	log := mixedLog(t, 500)

	fast := NewCorrelator()
	if !fast.fast {
		t.Fatal("production correlator should be fast-path eligible")
	}
	slow := NewCorrelator()
	slow.fast = false

	fastEvents, err := fast.ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	slowEvents, err := slow.ParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(fastEvents) != len(slowEvents) {
		t.Fatalf("fast parsed %d events, slow %d", len(fastEvents), len(slowEvents))
	}
	for i := range fastEvents {
		if fastEvents[i] != slowEvents[i] {
			t.Fatalf("event %d differs:\nfast %+v\nslow %+v", i, fastEvents[i], slowEvents[i])
		}
	}
	if fast.Dropped != slow.Dropped || fast.Malformed != slow.Malformed || fast.Oversized != slow.Oversized {
		t.Errorf("counters differ: fast (%d,%d,%d) slow (%d,%d,%d)",
			fast.Dropped, fast.Malformed, fast.Oversized,
			slow.Dropped, slow.Malformed, slow.Oversized)
	}

	// Re-encoding the parsed events must reproduce the event lines of
	// the original log bytes exactly (WriteLog round trip).
	var buf bytes.Buffer
	if err := WriteLog(&buf, fastEvents); err != nil {
		t.Fatal(err)
	}
	reparsed, err := NewCorrelator().ParseAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(reparsed) != len(fastEvents) {
		t.Fatalf("re-encoded log parsed to %d events, want %d", len(reparsed), len(fastEvents))
	}
}

func TestDecodeRawBytesAllocs(t *testing.T) {
	var d Decoder
	line := []byte(sampleEvent().Raw())
	d.DecodeRawBytes(line) // warm the scratch buffer
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := d.DecodeRawBytes(line); !ok {
			t.Fatal("canonical line declined")
		}
	})
	// Acceptance budget: the fast path may allocate at most 2 objects
	// per decoded line; in practice it allocates none.
	if allocs > 2 {
		t.Errorf("DecodeRawBytes allocates %.1f objects/op, budget is 2", allocs)
	}
}

func TestAppendRawAllocs(t *testing.T) {
	events := []Event{sampleEvent()}
	topology.CNameOf(events[0].Node) // warm the interned cname table
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		buf = events[0].AppendRaw(buf[:0])
	})
	if allocs > 0 {
		t.Errorf("AppendRaw allocates %.1f objects/op, want 0", allocs)
	}
}

// mixedLog renders n canonical events interleaved with chatter,
// malformed and CRLF-terminated lines, deterministic in n.
func mixedLog(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	base := sampleEvent()
	for i := 0; i < n; i++ {
		e := base
		e.Time = base.Time.Add(time.Duration(i) * time.Minute)
		e.Node = topology.NodeID((int(base.Node) + i*37) % topology.TotalNodes)
		e.Serial = gpu.Serial(1000 + i)
		e.Job = JobID(i)
		switch i % 5 {
		case 1:
			e.Code = 13
			e.StructureValid = false
			e.Page = NoPage
		case 2:
			e.Code = xid.OffTheBus
			e.StructureValid = false
			e.Page = NoPage
		}
		buf.WriteString(e.Raw())
		if i%7 == 0 {
			buf.WriteString("\r") // CRLF line ending
		}
		buf.WriteByte('\n')
		switch i % 4 {
		case 0:
			buf.WriteString("[2014-02-03 11:52:07] c3-2c1s4n2 kernel: Lustre: recovery complete\n")
		case 1:
			buf.WriteString("\n") // blank
		case 2:
			buf.WriteString("[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, DBE serial=zz job=1\n")
		}
	}
	return buf.Bytes()
}

// TestDecodedNodeValid: no decoded event — fast path or regex fallback —
// names a node outside the machine. titand indexes its per-node table
// with Event.Node, so a cname past any coordinate's bound (or one that
// wraps an int) must be refused by both decoders, and the machine's
// corner nodes must come through on both.
func TestDecodedNodeValid(t *testing.T) {
	whole := sampleEvent().Raw()
	const cname = "c3-2c1s4n2"
	if !strings.Contains(whole, cname) {
		t.Fatalf("sample line %q does not carry %s", whole, cname)
	}
	for _, tc := range []struct {
		cname string
		ok    bool
	}{
		{"c0-0c0s0n0", true},
		{"c7-24c2s7n3", true}, // node 19,199, the last slot
		{"c8-0c0s0n0", false},
		{"c0-25c0s0n0", false},
		{"c0-0c3s0n0", false},
		{"c0-0c0s8n0", false},
		{"c0-0c0s0n4", false},
		{"c-1-0c0s0n0", false},
		{"c4294967296-0c0s0n0", false},
		{"c18446744073709551615-0c0s0n0", false},
		{"c0-0c0s0n18446744073709551615", false},
	} {
		canonical := strings.Replace(whole, cname, tc.cname, 1)
		// A leading zero on the serial leaves the canonical form, so the
		// line takes the regex path even on a fast-armed correlator.
		deviating := strings.Replace(canonical, "serial=1234", "serial=01234", 1)
		for _, line := range []string{canonical, deviating} {
			c := NewCorrelator()
			events, _ := c.AppendBytes(nil, nil, []byte(line), false, &Decoder{})
			if len(events) == 1 != tc.ok {
				t.Errorf("%q: decoded %d events, want ok=%v", line, len(events), tc.ok)
			}
			for _, ev := range events {
				if !ev.Node.Valid() {
					t.Errorf("%q: decoded node %d, outside the machine", line, ev.Node)
				}
			}
			if wantFast := line == canonical; tc.ok && (c.FastHits == 1) != wantFast {
				t.Errorf("%q: fast hits %d, fallbacks %d; want the fast path taken=%v", line, c.FastHits, c.FastFallbacks, wantFast)
			}
		}
	}
}
