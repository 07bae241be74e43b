package console

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

func ts(s string) time.Time {
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		panic(err)
	}
	return t
}

func sampleEvent() Event {
	return Event{
		Time:           ts("2014-02-03T11:52:07Z"),
		Node:           topology.Location{Row: 2, Column: 3, Cage: 1, Blade: 4, Node: 2}.ID(),
		Serial:         gpu.Serial(1234),
		Code:           xid.DoubleBitError,
		Structure:      gpu.DeviceMemory,
		StructureValid: true,
		Page:           777,
		Job:            42,
	}
}

func TestRawRendering(t *testing.T) {
	raw := sampleEvent().Raw()
	for _, want := range []string{
		"[2014-02-03 11:52:07]", "c3-2c1s4n2", "kernel: NVRM: Xid",
		": 48,", "double bit error", "serial=1234", "job=42",
		"unit=framebuffer", "page=777",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("raw line missing %q:\n%s", want, raw)
		}
	}
}

func TestRawOffTheBus(t *testing.T) {
	e := sampleEvent()
	e.Code = xid.OffTheBus
	e.StructureValid = false
	e.Page = NoPage
	raw := e.Raw()
	if !strings.Contains(raw, "has fallen off the bus") {
		t.Errorf("OTB raw line wrong: %s", raw)
	}
	if strings.Contains(raw, "Xid") {
		t.Errorf("OTB line must not carry an Xid: %s", raw)
	}
	if strings.Contains(raw, "page=") {
		t.Errorf("OTB line must not carry a page: %s", raw)
	}
}

func TestParseLineRoundTrip(t *testing.T) {
	c := NewCorrelator()
	e := sampleEvent()
	got, ok := c.ParseLine(e.Raw())
	if !ok {
		t.Fatalf("ParseLine rejected %q", e.Raw())
	}
	if got != e {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestRoundTripAllCodes(t *testing.T) {
	c := NewCorrelator()
	for _, info := range xid.All() {
		if info.Code == xid.SingleBitError {
			continue // SBEs never hit the console
		}
		e := sampleEvent()
		e.Code = info.Code
		if info.Code != xid.DoubleBitError && info.Code != xid.ECCPageRetirement && info.Code != xid.ECCPageRetirementAlt {
			e.StructureValid = false
			e.Page = NoPage
		}
		got, ok := c.ParseLine(e.Raw())
		if !ok {
			t.Errorf("code %v: line rejected: %s", info.Code, e.Raw())
			continue
		}
		if got != e {
			t.Errorf("code %v: round trip mismatch\n got %+v\nwant %+v", info.Code, got, e)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := NewCorrelator()
	codes := []xid.Code{13, 31, 43, 48, 62, 63, xid.OffTheBus}
	f := func(nodeRaw uint32, serial uint32, job int64, sec int64, pageRaw int32) bool {
		e := Event{
			Time:   time.Unix(1371000000+sec%50000000, 0).UTC(),
			Node:   topology.NodeID(nodeRaw % topology.TotalNodes),
			Serial: gpu.Serial(serial),
			Code:   codes[int(nodeRaw)%len(codes)],
			Page:   NoPage,
			Job:    JobID(job % 1e6),
		}
		if e.Job < 0 {
			e.Job = -e.Job
		}
		if e.Code == xid.DoubleBitError {
			e.StructureValid = true
			e.Structure = gpu.Structure(int(pageRaw%int32(gpu.NumStructures)+int32(gpu.NumStructures)) % gpu.NumStructures)
			if p := pageRaw % 98304; p >= 0 {
				e.Page = p
			}
		}
		got, ok := c.ParseLine(e.Raw())
		return ok && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChatterDropped(t *testing.T) {
	c := NewCorrelator()
	chatter := []string{
		"",
		"random noise",
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: Lustre: recovery complete",
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: loading driver",
	}
	for _, line := range chatter {
		if _, ok := c.ParseLine(line); ok {
			t.Errorf("chatter accepted: %q", line)
		}
	}
	if c.Dropped != len(chatter) {
		t.Errorf("Dropped = %d, want %d", c.Dropped, len(chatter))
	}
}

func TestMalformedCounted(t *testing.T) {
	c := NewCorrelator()
	bad := []string{
		// Valid header, matched rule, junk serial.
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, DBE serial=99999999999999999999 job=1",
		// Unit token unknown.
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, DBE serial=1 job=1 unit=bogus-unit",
	}
	for _, line := range bad {
		if _, ok := c.ParseLine(line); ok {
			t.Errorf("malformed line accepted: %q", line)
		}
	}
	if c.Malformed != len(bad) {
		t.Errorf("Malformed = %d, want %d", c.Malformed, len(bad))
	}
}

func TestWriteLogParseAll(t *testing.T) {
	events := []Event{sampleEvent(), sampleEvent(), sampleEvent()}
	events[1].Code = xid.GraphicsEngineException
	events[1].StructureValid = false
	events[1].Page = NoPage
	events[2].Code = xid.OffTheBus
	events[2].StructureValid = false
	events[2].Page = NoPage
	events[1].Time = events[0].Time.Add(time.Minute)
	events[2].Time = events[0].Time.Add(2 * time.Minute)

	var buf bytes.Buffer
	if err := WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := NewCorrelator().ParseAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

func TestParseAllSkipsBlankAndChatter(t *testing.T) {
	log := sampleEvent().Raw() + "\n\nnot a console line\n" + sampleEvent().Raw() + "\n"
	got, err := NewCorrelator().ParseAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d events, want 2", len(got))
	}
}

func TestSortEvents(t *testing.T) {
	base := ts("2014-01-01T00:00:00Z")
	events := []Event{
		{Time: base.Add(time.Hour), Node: 5},
		{Time: base, Node: 9},
		{Time: base, Node: 2},
	}
	SortEvents(events)
	if events[0].Node != 2 || events[1].Node != 9 || events[2].Node != 5 {
		t.Errorf("sort order wrong: %+v", events)
	}
}

func TestBeforeTieBreak(t *testing.T) {
	base := ts("2014-01-01T00:00:00Z")
	a := Event{Time: base, Node: 1}
	b := Event{Time: base, Node: 2}
	if !a.Before(b) || b.Before(a) {
		t.Error("node tie-break wrong")
	}
}

func TestAddRuleObservation5(t *testing.T) {
	// Observation 5: operators must keep updating parsing rules when
	// NVIDIA introduces new XIDs. A correlator without the rule drops
	// the line; adding the rule classifies it.
	c := &Correlator{}
	line := sampleEvent().Raw()
	if _, ok := c.ParseLine(line); ok {
		t.Fatal("empty correlator should classify nothing")
	}
	c.AddRule(Rule{
		Name:    "xid-48",
		Pattern: xidPattern(48),
		Code:    xid.DoubleBitError,
	})
	if _, ok := c.ParseLine(line); !ok {
		t.Fatal("rule added but line still dropped")
	}
	if len(c.Rules()) != 1 {
		t.Error("Rules() should report one rule")
	}
}

func TestEventString(t *testing.T) {
	s := sampleEvent().String()
	for _, want := range []string{"c3-2c1s4n2", "XID 48", "job=42"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestParseLineNeverPanics(t *testing.T) {
	// SEC runs against an untrusted firehose; arbitrary junk must never
	// panic the correlator.
	c := NewCorrelator()
	f := func(line string) bool {
		_, _ = c.ParseLine(line)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Adversarial near-misses.
	for _, line := range []string{
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48",
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (): 48,",
		"[9999-99-99 99:99:99] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48, x",
		"[2014-02-03 11:52:07] c99-99c9s9n9 kernel: NVRM: Xid (0000:02:00.0): 48, x",
		"[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 999999999999999999999999,",
	} {
		_, _ = c.ParseLine(line)
	}
}
