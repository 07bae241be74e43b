package stats

import (
	"cmp"
	"math"
	"slices"
)

// Top-k offender exclusion.
//
// The paper repeatedly re-runs an analysis after removing the 10 and 50
// GPU cards with the most single bit errors, because a handful of cards
// produce almost all SBEs and swamp every spatial and correlation result.
// These helpers implement that exclusion over generic keyed counts.

// KeyCount is a (key, count) pair for offender rankings.
type KeyCount struct {
	Key   uint64
	Count int64
}

// TopOffenders returns the k keys with the largest counts, ties broken by
// ascending key for determinism, sorted by descending count.
func TopOffenders(counts map[uint64]int64, k int) []KeyCount {
	all := make([]KeyCount, 0, len(counts))
	for key, c := range counts {
		all = append(all, KeyCount{Key: key, Count: c})
	}
	return RankOffenders(all, k)
}

// offenderOrder is the ranking order: count descending, key ascending.
func offenderOrder(a, b KeyCount) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return cmp.Compare(a.Key, b.Key)
}

// RankOffenders is TopOffenders over pairs the caller already holds: it
// returns the k first-ranked entries in rank order, using all as its
// scratch space (the result aliases it; the rest is left in no order).
// For k < len(all) that is a Leaders selection kept in all's own front —
// a pair is only ever written to a place already read — so asking for
// ten of 16,000 never sorts the 16,000.
func RankOffenders(all []KeyCount, k int) []KeyCount {
	if k < len(all) {
		l := NewLeaders(k, all)
		for _, kc := range all {
			l.Offer(kc)
		}
		return l.Ranked()
	}
	slices.SortFunc(all, offenderOrder)
	return all
}

// Leaders selects the k first-ranked of the pairs offered to it one at a
// time, in a heap with the worst pair kept on top: once k are kept, a
// pair with a lower count than that one costs one compare, in line.
type Leaders struct {
	k     int
	heap  []KeyCount
	floor int64 // the worst kept count once k are kept; any count goes until then
}

// NewLeaders keeps up to k pairs (none for k <= 0) in buf's array.
func NewLeaders(k int, buf []KeyCount) Leaders {
	return Leaders{k: max(k, 0), heap: buf[:0], floor: math.MinInt64}
}

// Offer considers one pair.
func (l *Leaders) Offer(kc KeyCount) {
	if kc.Count >= l.floor {
		l.offer(kc)
	}
}

func (l *Leaders) offer(kc KeyCount) {
	h := l.heap
	if len(h) < l.k {
		h = append(h, kc)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if offenderOrder(h[i], h[parent]) <= 0 {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		l.heap = h
		if len(h) == l.k {
			l.floor = h[0].Count
		}
		return
	}
	if len(h) == 0 || offenderOrder(kc, h[0]) >= 0 {
		return
	}
	h[0] = kc
	for i := 0; ; {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if offenderOrder(h[c], h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			break
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
	l.floor = h[0].Count
}

// Ranked returns the kept pairs in rank order, in the heap's array.
func (l *Leaders) Ranked() []KeyCount {
	slices.SortFunc(l.heap, offenderOrder)
	return l.heap
}

// SkewRatio reports what fraction of the total count the top-k keys carry;
// 0 when the total is zero. It is the quantitative form of the paper's
// "a small fraction of cards are responsible for almost all of the SBEs".
func SkewRatio(counts map[uint64]int64, k int) float64 {
	var total int64
	for _, v := range counts {
		total += v
	}
	if total == 0 {
		return 0
	}
	var top int64
	for _, kc := range TopOffenders(counts, k) {
		top += kc.Count
	}
	return float64(top) / float64(total)
}
