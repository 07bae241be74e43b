package console

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// NoPage marks events without a framebuffer page.
const NoPage int32 = -1

// Rule is one SEC correlation rule: a pattern over the message part of a
// console line and the event code lines matching it classify as.
type Rule struct {
	Name    string
	Pattern *regexp.Regexp
	Code    xid.Code
}

// Correlator is the simple-event-correlator configuration used on the
// SMW: an ordered rule list applied to each console line. Lines matching
// no rule are counted and dropped, like the operational setup which only
// keeps critical events.
type Correlator struct {
	rules []Rule
	// fast marks correlators carrying exactly the production rule set,
	// for which the zero-allocation decoder is provably equivalent to
	// the regex path. Custom rule sets (NewCorrelatorFromRules, AddRule)
	// clear it and always take the regex path.
	fast bool
	// Dropped counts lines that matched no rule.
	Dropped int
	// Malformed counts lines that matched a rule but could not be
	// decoded into a full record.
	Malformed int
	// Oversized counts lines longer than the 1 MiB record cap; they are
	// skipped and the parse resumes at the next newline.
	Oversized int
	// FastHits counts lines decoded entirely on the zero-allocation fast
	// path; FastFallbacks counts lines a fast-armed correlator had to
	// re-classify through the regex path (deviating bus ids, custom
	// annotations, corruption). Both stay zero when the fast path is
	// disarmed or the caller parses line-by-line through ParseLine.
	FastHits      int
	FastFallbacks int
}

var (
	headerRe = regexp.MustCompile(`^\[(\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})\] (c\d+-\d+c\d+s\d+n\d+) kernel: NVRM: (.*)$`)
	xidRe    = regexp.MustCompile(`^Xid \([0-9a-f:.]+\): (-?\d+),`)
	// The value class is deliberately wide (any non-space run): a garbled
	// value must still be *seen* so the record can be rejected as
	// malformed instead of silently parsed without its annotation.
	kvRe = regexp.MustCompile(`(serial|job|unit|page)=(\S+)`)
)

// NewCorrelator returns a correlator loaded with the production rule set:
// one rule per XID in the study's catalog plus the off-the-bus kernel
// message. The paper's Observation 5 notes operators must keep updating
// these rules as NVIDIA introduces new XIDs; AddRule supports that.
func NewCorrelator() *Correlator {
	c := &Correlator{}
	c.AddRule(Rule{
		Name:    "gpu-off-the-bus",
		Pattern: regexp.MustCompile(`has fallen off the bus`),
		Code:    xid.OffTheBus,
	})
	for _, info := range xid.All() {
		if info.Code < 0 {
			continue // synthetic codes other than OTB never hit the console
		}
		code := info.Code
		c.AddRule(Rule{
			Name:    fmt.Sprintf("xid-%d", int(code)),
			Pattern: xidPattern(int(code)),
			Code:    code,
		})
	}
	c.fast = true // exactly the production rules: fast path is sound
	return c
}

// xidPattern builds the SEC pattern matching driver messages for one XID.
func xidPattern(code int) *regexp.Regexp {
	return regexp.MustCompile(fmt.Sprintf(`^Xid \([0-9a-f:.]+\): %d,`, code))
}

// AddRule appends a rule to the correlator. A correlator whose rule set
// was modified after construction always classifies through the regex
// path — the fast path's soundness argument only covers the production
// rule set.
func (c *Correlator) AddRule(r Rule) {
	c.rules = append(c.rules, r)
	c.fast = false
}

// Rules returns a copy of the active rule list.
func (c *Correlator) Rules() []Rule {
	out := make([]Rule, len(c.rules))
	copy(out, c.rules)
	return out
}

// Verdict says what a console line turned out to be. It separates the
// two "not an event" cases the operational counters lump together —
// chatter (no rule matched) and malformed records — into the categories
// a recovering ingester needs to decide between quarantine and resync.
type Verdict int

const (
	// VerdictEvent: the line decoded into a full event record.
	VerdictEvent Verdict = iota
	// VerdictNoHeader: the line does not look like a console record at
	// all (no "[ts] cname kernel: NVRM:" header). Torn tail fragments
	// land here.
	VerdictNoHeader
	// VerdictChatter: well-formed header but the message matched no SEC
	// rule. Torn head fragments that kept their header also land here.
	VerdictChatter
	// VerdictBadTime: header matched but the timestamp did not decode.
	VerdictBadTime
	// VerdictBadNode: header matched but the cname did not decode.
	VerdictBadNode
	// VerdictCodeMismatch: the explicit XID number in the message
	// disagrees with the rule that matched.
	VerdictCodeMismatch
	// VerdictBadAnnotation: a trailing key=value annotation did not
	// decode (garbled serial/job/unit/page).
	VerdictBadAnnotation
)

// String names the verdict for quarantine categorization.
func (v Verdict) String() string {
	switch v {
	case VerdictEvent:
		return "event"
	case VerdictNoHeader:
		return "no-header"
	case VerdictChatter:
		return "chatter"
	case VerdictBadTime:
		return "bad-timestamp"
	case VerdictBadNode:
		return "bad-node"
	case VerdictCodeMismatch:
		return "code-mismatch"
	case VerdictBadAnnotation:
		return "bad-annotation"
	}
	return "unknown"
}

// Classify decodes one console line without touching the operational
// counters. ParseLine and the ingest recovery path are both built on it.
func (c *Correlator) Classify(line string) (ev Event, v Verdict) {
	m := headerRe.FindStringSubmatch(line)
	if m == nil {
		return Event{}, VerdictNoHeader
	}
	msg := m[3]
	var matched *Rule
	for i := range c.rules {
		if c.rules[i].Pattern.MatchString(msg) {
			matched = &c.rules[i]
			break
		}
	}
	if matched == nil {
		return Event{}, VerdictChatter
	}
	ts, err := time.ParseInLocation("2006-01-02 15:04:05", m[1], time.UTC)
	if err != nil {
		return Event{}, VerdictBadTime
	}
	node, err := topology.ParseNodeID(m[2])
	if err != nil {
		return Event{}, VerdictBadNode
	}
	// Sanity: when the message carries an explicit XID number it must
	// agree with the rule that matched.
	if xm := xidRe.FindStringSubmatch(msg); xm != nil {
		n, _ := strconv.Atoi(xm[1])
		if xid.Code(n) != matched.Code {
			return Event{}, VerdictCodeMismatch
		}
	}
	ev = Event{Time: ts, Node: node, Code: matched.Code, Page: NoPage}
	for _, kv := range kvRe.FindAllStringSubmatch(msg, -1) {
		switch kv[1] {
		case "serial":
			n, err := strconv.ParseUint(kv[2], 10, 32)
			if err != nil {
				return Event{}, VerdictBadAnnotation
			}
			ev.Serial = gpu.Serial(n)
		case "job":
			n, err := strconv.ParseInt(kv[2], 10, 64)
			if err != nil {
				return Event{}, VerdictBadAnnotation
			}
			ev.Job = JobID(n)
		case "unit":
			s, known := tokenStruct[kv[2]]
			if !known {
				return Event{}, VerdictBadAnnotation
			}
			ev.Structure = s
			ev.StructureValid = true
		case "page":
			n, err := strconv.ParseInt(kv[2], 10, 32)
			if err != nil {
				return Event{}, VerdictBadAnnotation
			}
			ev.Page = int32(n)
		}
	}
	return ev, VerdictEvent
}

// ParseLine classifies one console line. ok is false when the line matched
// no rule (chatter) or was malformed; malformed lines also increment the
// Malformed counter.
func (c *Correlator) ParseLine(line string) (ev Event, ok bool) {
	ev, v := c.Classify(line)
	switch v {
	case VerdictEvent:
		return ev, true
	case VerdictNoHeader, VerdictChatter:
		c.Dropped++
	default:
		c.Malformed++
	}
	return Event{}, false
}

// decodeLine classifies one line held as bytes — the step every log walk
// shares: the zero-allocation decoder first (when the rule set permits
// it), the regex path — which is the only place a string is
// materialized — on any deviation. Counters are updated exactly like
// ParseLine. A decoder that keeps renderings gets the regex path's events
// through the same AppendRaw the fast path's gate ran.
func (c *Correlator) decodeLine(d *Decoder, line []byte) (Event, bool) {
	if c.fast {
		if ev, ok := d.DecodeRawBytes(line); ok {
			c.FastHits++
			return ev, true
		}
		c.FastFallbacks++
	}
	ev, ok := c.ParseLine(string(line))
	if ok && d.Seal != nil {
		d.Render(ev)
	}
	return ev, ok
}

// addCounters folds another correlator's operational counters into c.
func (c *Correlator) addCounters(o *Correlator) {
	c.Dropped += o.Dropped
	c.Malformed += o.Malformed
	c.Oversized += o.Oversized
	c.FastHits += o.FastHits
	c.FastFallbacks += o.FastFallbacks
}

// ParseAll reads a whole console log and returns every event it could
// classify, in file order. Lines longer than the 1 MiB record cap are
// skip-counted (Oversized) and the parse resumes at the next newline
// instead of aborting the file.
func (c *Correlator) ParseAll(r io.Reader) ([]Event, error) {
	var out []Event
	// When the source is a regular file, pre-size the event slice from
	// its byte size: console lines run ~110-130 bytes, so size/100
	// over-covers the line count and a clean log parses into a single
	// allocation instead of append-doubling tens of megabytes.
	if f, ok := r.(*os.File); ok {
		if info, err := f.Stat(); err == nil && info.Size() > 0 {
			out = make([]Event, 0, info.Size()/100)
		}
	}
	var d Decoder
	lr := newLineReader(r)
	for {
		line, ok, err := lr.next()
		if err != nil {
			c.Oversized += lr.oversized
			return out, fmt.Errorf("console: reading log: %w", err)
		}
		if !ok {
			break
		}
		if len(line) == 0 {
			continue
		}
		if ev, ok := c.decodeLine(&d, line); ok {
			out = append(out, ev)
		}
	}
	c.Oversized += lr.oversized
	return out, nil
}
