package filtering

import (
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

var base = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(sec float64, code xid.Code, node topology.NodeID, job console.JobID, serial gpu.Serial) console.Event {
	return console.Event{
		Time:   base.Add(time.Duration(sec * float64(time.Second))),
		Node:   node,
		Code:   code,
		Job:    job,
		Serial: serial,
		Page:   console.NoPage,
	}
}

func TestByCode(t *testing.T) {
	events := []console.Event{
		ev(0, 13, 1, 1, 1), ev(1, 48, 2, 1, 2), ev(2, 13, 3, 2, 3),
	}
	got := ByCode(events, 13)
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 3 {
		t.Errorf("ByCode = %v", got)
	}
	if len(ByCode(events, 99)) != 0 {
		t.Error("unknown code should match nothing")
	}
}

func TestTimeThresholdCollapsesStorm(t *testing.T) {
	// A job-wide storm: same code on 5 nodes within 4 seconds, then a
	// separate incident 60 seconds later.
	var events []console.Event
	for i := 0; i < 5; i++ {
		events = append(events, ev(float64(i), 13, topology.NodeID(i), 7, gpu.Serial(i+1)))
	}
	events = append(events, ev(64, 13, 9, 8, 10))
	got := TimeThreshold(events, 5*time.Second)
	if len(got) != 2 {
		t.Fatalf("kept %d events, want 2 incidents", len(got))
	}
	if got[0].Job != 7 || got[1].Job != 8 {
		t.Errorf("kept wrong events: %v", got)
	}
	kids := Children(events, 5*time.Second)
	if len(kids) != 4 {
		t.Errorf("children = %d, want 4", len(kids))
	}
	if len(got)+len(kids) != len(events) {
		t.Error("filter and complement must partition the input")
	}
}

func TestTimeThresholdPerCode(t *testing.T) {
	// Different codes never suppress each other.
	events := []console.Event{
		ev(0, 13, 1, 1, 1), ev(1, 43, 1, 1, 1), ev(2, 45, 1, 1, 1),
	}
	got := TimeThreshold(events, 5*time.Second)
	if len(got) != 3 {
		t.Errorf("kept %d, want 3 (codes are independent)", len(got))
	}
}

func TestTimeThresholdSlidingChain(t *testing.T) {
	// Suppression is relative to the last KEPT event, so a chain of
	// events 3s apart collapses to every-other-kept based on the first:
	// 0 kept, 3 dropped (3 < 5 from 0), 6 kept (6-0 >= 5), 9 dropped...
	events := []console.Event{
		ev(0, 13, 1, 0, 1), ev(3, 13, 2, 0, 2), ev(6, 13, 3, 0, 3), ev(9, 13, 4, 0, 4),
	}
	got := TimeThreshold(events, 5*time.Second)
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 3 {
		t.Errorf("chain filtering = %v", got)
	}
}

func TestTimeThresholdZeroWindow(t *testing.T) {
	events := []console.Event{ev(0, 13, 1, 0, 1), ev(0.1, 13, 2, 0, 2)}
	got := TimeThreshold(events, 0)
	if len(got) != len(events) {
		t.Error("zero window must keep everything")
	}
	if Children(events, 0) != nil {
		t.Error("zero window has no children")
	}
	// The copy must not alias the input.
	got[0].Node = 99
	if events[0].Node == 99 {
		t.Error("TimeThreshold must copy")
	}
}

func TestCooccurrenceMatrix(t *testing.T) {
	codes := []xid.Code{48, 45, 13}
	// Two DBEs; the first is followed by 45 within 300 s, the second not.
	events := []console.Event{
		ev(0, 48, 1, 0, 1),
		ev(30, 45, 1, 0, 1),
		ev(1000, 48, 2, 0, 2),
		ev(2000, 13, 3, 0, 3),
		ev(2001, 13, 4, 0, 4), // same-type repeat
	}
	m := CooccurrenceMatrix(events, codes, 300*time.Second, false)
	if m[0][1] != 0.5 {
		t.Errorf("P(45 follows 48) = %v, want 0.5", m[0][1])
	}
	if m[2][2] != 0.5 {
		t.Errorf("P(13 follows 13) = %v, want 0.5 (diagonal included)", m[2][2])
	}
	m2 := CooccurrenceMatrix(events, codes, 300*time.Second, true)
	if m2[2][2] != 0 {
		t.Errorf("diagonal must be zero when excluded, got %v", m2[2][2])
	}
	if m2[0][1] != 0.5 {
		t.Error("off-diagonal must be unaffected by diagonal exclusion")
	}
}

func TestCooccurrenceCountsAtMostOncePerFollower(t *testing.T) {
	codes := []xid.Code{48, 45}
	events := []console.Event{
		ev(0, 48, 1, 0, 1),
		ev(10, 45, 1, 0, 1),
		ev(20, 45, 1, 0, 1), // second follower must not double-count
	}
	m := CooccurrenceMatrix(events, codes, 300*time.Second, false)
	if m[0][1] != 1.0 {
		t.Errorf("fraction = %v, want 1.0", m[0][1])
	}
}

func TestCooccurrenceIgnoresUnknownCodes(t *testing.T) {
	codes := []xid.Code{48}
	events := []console.Event{ev(0, 99, 1, 0, 1), ev(1, 48, 1, 0, 1)}
	m := CooccurrenceMatrix(events, codes, time.Minute, false)
	if len(m) != 1 || m[0][0] != 0 {
		t.Errorf("matrix = %v", m)
	}
}
