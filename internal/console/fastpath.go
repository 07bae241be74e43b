package console

import (
	"bytes"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// The zero-allocation fast path.
//
// DecodeRawBytes hand-parses the canonical console-line format —
// "[ts] cname kernel: NVRM: ..." header, XID number, trailing key=value
// annotations — directly from the byte slice, with no regexp and no
// intermediate strings. It is *sound by construction*: after decoding, the
// event is re-encoded with AppendRaw into the Decoder's buffer and the
// fast path claims the line only if the bytes match exactly. A claimed
// line is therefore the canonical encoding of its event, which the SEC
// round-trip properties (TestRoundTripAllCodes, FuzzDecodeEquivalence)
// prove Classify maps back to the same event with VerdictEvent. Every
// other line — foreign bus ids, reordered annotations, leading zeros,
// chatter, corruption — returns ok=false and falls back to the regex
// path, so verdicts and quarantine behavior are bit-for-bit unchanged.
//
// That re-encoding is also the only rendering a line needs on its way to
// a write-ahead journal: a Decoder with Seal set keeps it (see Decoder).

// maxLineBytes is the longest console line the parsers accept, matching
// the 1 MiB scanner cap the slow path historically used. Longer records
// are skip-counted (Correlator.Oversized) and the parse resumes at the
// next newline instead of aborting the file.
const maxLineBytes = 1 << 20

// Decoder carries the fast path's render buffer; one Decoder serves one
// goroutine. The zero value is ready to use and discards every rendering:
// Buf is scratch, rewound after each line. With Seal set, every event a
// walk decodes — fast path or regex fallback — leaves one record in Buf:
// Room bytes for the caller's record header, then the event's AppendRaw
// rendering, handed to Seal to fill the header in. A line that decodes to
// no event leaves nothing behind.
type Decoder struct {
	Buf  []byte
	Room int
	Seal func(rec []byte)
}

// DecodeRawBytes decodes one console line (without trailing newline) on
// the fast path. ok=false means the line deviates from the canonical
// format in some way — the caller must fall back to Correlator.Classify,
// which is authoritative. ok=true guarantees Classify(string(line)) would
// return exactly (ev, VerdictEvent) under the production rule set.
func (d *Decoder) DecodeRawBytes(line []byte) (ev Event, ok bool) {
	ev, ok = decodeCanonical(line)
	if !ok {
		return Event{}, false
	}
	// Soundness gate: only claim lines that are byte-identical to the
	// canonical encoding of what we decoded.
	rec := d.render(ev)
	if ok = bytes.Equal(rec[d.Room:], line); ok && d.Seal != nil {
		d.Seal(rec)
	} else {
		d.Buf = d.Buf[:len(d.Buf)-len(rec)] // refused, or a decoder that keeps nothing
	}
	if !ok {
		return Event{}, false
	}
	return ev, true
}

// render appends ev's record — Room spare bytes, then its AppendRaw
// rendering — to Buf and returns it.
func (d *Decoder) render(ev Event) []byte {
	start := len(d.Buf)
	d.Buf = ev.AppendRaw(append(d.Buf, make([]byte, d.Room)...))
	return d.Buf[start:]
}

// Render leaves ev's record in Buf as a walk would have, for an event
// that did not come off a line; d must be a decoder that keeps renderings.
func (d *Decoder) Render(ev Event) { d.Seal(d.render(ev)) }

var kernelSep = []byte(" kernel: NVRM: ")

// decodeCanonical extracts the event fields assuming the canonical
// layout. It is deliberately permissive about what it does not need to
// check (description text, value ranges that normalize away): the
// re-encode gate in DecodeRawBytes rejects every impostor.
func decodeCanonical(line []byte) (Event, bool) {
	// "[YYYY-MM-DD HH:MM:SS] " is 22 bytes.
	if len(line) < 22 || line[0] != '[' || line[20] != ']' || line[21] != ' ' ||
		line[5] != '-' || line[8] != '-' || line[11] != ' ' || line[14] != ':' || line[17] != ':' {
		return Event{}, false
	}
	year, ok := fixedUint(line[1:5])
	if !ok {
		return Event{}, false
	}
	month, ok := fixedUint(line[6:8])
	if !ok {
		return Event{}, false
	}
	day, ok := fixedUint(line[9:11])
	if !ok {
		return Event{}, false
	}
	hour, ok := fixedUint(line[12:14])
	if !ok {
		return Event{}, false
	}
	minute, ok := fixedUint(line[15:17])
	if !ok {
		return Event{}, false
	}
	sec, ok := fixedUint(line[18:20])
	if !ok {
		return Event{}, false
	}
	node, n := decodeCName(line[22:])
	if n == 0 {
		return Event{}, false
	}
	rest := line[22+n:]
	if !bytes.HasPrefix(rest, kernelSep) {
		return Event{}, false
	}
	msg := rest[len(kernelSep):]

	ev := Event{
		Time: time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC),
		Node: node,
		Page: NoPage,
	}
	switch {
	case len(msg) > 0 && msg[0] == 'G' && bytes.HasPrefix(msg, []byte(otbMessage)):
		ev.Code = xid.OffTheBus
		msg = msg[len(otbMessage):]
	case len(msg) > 0 && msg[0] == 'X' && bytes.HasPrefix(msg, []byte(xidPrefix)):
		msg = msg[len(xidPrefix):]
		code, n := decodeUint(msg)
		if n == 0 || n >= len(msg) || msg[n] != ',' {
			return Event{}, false
		}
		ev.Code = xid.Code(code)
		// Only codes with a production SEC rule can decode to events;
		// anything else is chatter and belongs to the slow path.
		if !xid.Known(ev.Code) {
			return Event{}, false
		}
		// Skip the description; the re-encode gate verifies it.
		idx := bytes.Index(msg, []byte(" serial="))
		if idx < 0 {
			return Event{}, false
		}
		msg = msg[idx:]
	default:
		return Event{}, false
	}
	return decodeAnnotations(ev, msg)
}

// decodeAnnotations parses the canonical trailer
// " serial=N job=N[ unit=TOK][ page=N]" and requires it to consume the
// whole remainder.
func decodeAnnotations(ev Event, msg []byte) (Event, bool) {
	msg, ok := cutPrefix(msg, " serial=")
	if !ok {
		return Event{}, false
	}
	serial, n := decodeUint(msg)
	if n == 0 || serial > 1<<32-1 {
		return Event{}, false
	}
	ev.Serial = gpu.Serial(serial)
	msg, ok = cutPrefix(msg[n:], " job=")
	if !ok {
		return Event{}, false
	}
	neg := false
	if len(msg) > 0 && msg[0] == '-' {
		neg = true
		msg = msg[1:]
	}
	job, n := decodeUint(msg)
	if n == 0 {
		return Event{}, false
	}
	if neg {
		ev.Job = JobID(-int64(job))
	} else {
		ev.Job = JobID(job)
	}
	msg = msg[n:]
	if rest, ok := cutPrefix(msg, " unit="); ok {
		end := bytes.IndexByte(rest, ' ')
		tok := rest
		if end >= 0 {
			tok = rest[:end]
			msg = rest[end:]
		} else {
			msg = nil
		}
		s, known := structForToken(tok)
		if !known {
			return Event{}, false
		}
		ev.Structure = s
		ev.StructureValid = true
	}
	if rest, ok := cutPrefix(msg, " page="); ok {
		page, n := decodeUint(rest)
		if n == 0 || page > 1<<31-1 {
			return Event{}, false
		}
		ev.Page = int32(page)
		msg = rest[n:]
	}
	return ev, len(msg) == 0
}

// cutPrefix is bytes.CutPrefix constrained to string prefixes, kept local
// so the hot loop inlines it.
func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// fixedUint decodes a fixed-width all-digit field.
func fixedUint(b []byte) (int, bool) {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// decodeUint decodes a leading decimal run of at most 18 digits,
// returning the value and bytes consumed (0 = no digits, or too many —
// both send the line to the slow path).
func decodeUint(b []byte) (uint64, int) {
	var v uint64
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + uint64(b[n]-'0')
		n++
		if n > 18 {
			return 0, 0
		}
	}
	return v, n
}

// decodeCName parses "cC-RcGsBnN" numerically, returning the node and the
// bytes consumed (0 on failure). No strings are built; bounds are checked
// through Location.Valid like topology.ParseCName does.
func decodeCName(b []byte) (topology.NodeID, int) {
	i := 0
	field := func(sep byte) (int, bool) {
		if i >= len(b) || b[i] != sep {
			return 0, false
		}
		i++
		v, n := decodeUint(b[i:])
		if n == 0 {
			return 0, false
		}
		i += n
		return int(v), true
	}
	col, ok := field('c')
	if !ok {
		return 0, 0
	}
	row, ok := field('-')
	if !ok {
		return 0, 0
	}
	cage, ok := field('c')
	if !ok {
		return 0, 0
	}
	blade, ok := field('s')
	if !ok {
		return 0, 0
	}
	node, ok := field('n')
	if !ok {
		return 0, 0
	}
	loc := topology.Location{Row: row, Column: col, Cage: cage, Blade: blade, Node: node}
	if !loc.Valid() {
		return 0, 0
	}
	return loc.ID(), i
}

// Interned structure tokens for the unit= annotation, compared bytewise
// so decoding allocates nothing.
func structForToken(b []byte) (gpu.Structure, bool) {
	for s, tok := range structToken {
		if string(b) == tok {
			return gpu.Structure(s), true
		}
	}
	return 0, false
}
