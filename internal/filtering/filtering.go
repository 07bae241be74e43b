// Package filtering implements the event-filtering methodology of the
// study (Section 2.2, Fig. 12): separating real "parent" failures from the
// "child" records that follow them — the same error reported by every node
// of a job within seconds, and follow-on XIDs raised while the driver
// cleans up. The paper applies a time-threshold filter (five seconds
// collapses a job-wide error storm to one incident; 300 seconds is used
// for parent/child correlation analysis).
package filtering

import (
	"time"

	"titanre/internal/console"
	"titanre/internal/xid"
)

// ByCode returns the events with the given code, preserving order.
func ByCode(events []console.Event, code xid.Code) []console.Event {
	var out []console.Event
	for _, e := range events {
		if e.Code == code {
			out = append(out, e)
		}
	}
	return out
}

// TimeThreshold applies the paper's per-code time filter: an event is kept
// only when the previous kept event of the same code is at least window
// older. With a five-second window this counts one incident per job-wide
// error storm, "because the job would crash after the error". Events must
// be time-ordered; the result preserves order.
func TimeThreshold(events []console.Event, window time.Duration) []console.Event {
	if window <= 0 {
		out := make([]console.Event, len(events))
		copy(out, events)
		return out
	}
	lastKept := make(map[xid.Code]time.Time)
	var out []console.Event
	for _, e := range events {
		if prev, seen := lastKept[e.Code]; seen && e.Time.Sub(prev) < window {
			continue
		}
		lastKept[e.Code] = e.Time
		out = append(out, e)
	}
	return out
}

// Children returns the complement of TimeThreshold: the events the filter
// suppressed (Fig. 12 bottom, "XID 13 events that occurred within the
// five-second window").
func Children(events []console.Event, window time.Duration) []console.Event {
	if window <= 0 {
		return nil
	}
	lastKept := make(map[xid.Code]time.Time)
	var out []console.Event
	for _, e := range events {
		if prev, seen := lastKept[e.Code]; seen && e.Time.Sub(prev) < window {
			out = append(out, e)
			continue
		}
		lastKept[e.Code] = e.Time
	}
	return out
}

// CooccurrenceMatrix computes Fig. 13: for each ordered pair of codes
// (prev, next), the fraction of prev-events that are followed by at least
// one strictly-later next-event within the window. When excludeSameType
// is true the diagonal is forced to zero (the paper's bottom heatmap).
// Events must be time-ordered.
//
// The implementation collects per-code timestamp arrays and counts each
// pair with a two-pointer merge, so application-error storms (thousands
// of same-code events within seconds) cost linear rather than quadratic
// time.
func CooccurrenceMatrix(events []console.Event, codes []xid.Code, window time.Duration, excludeSameType bool) [][]float64 {
	idx := make(map[xid.Code]int, len(codes))
	for i, c := range codes {
		idx[c] = i
	}
	n := len(codes)
	times := make([][]int64, n)
	for _, e := range events {
		if i, ok := idx[e.Code]; ok {
			times[i] = append(times[i], e.Time.UnixNano())
		}
	}
	w := window.Nanoseconds()
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		if len(times[i]) == 0 {
			continue
		}
		for j := range out[i] {
			if excludeSameType && i == j {
				continue
			}
			followed := 0
			b := times[j]
			k := 0
			for _, ta := range times[i] {
				for k < len(b) && b[k] <= ta {
					k++
				}
				if k < len(b) && b[k]-ta <= w {
					followed++
				}
			}
			out[i][j] = float64(followed) / float64(len(times[i]))
		}
	}
	return out
}
