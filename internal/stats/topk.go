package stats

import (
	"cmp"
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
// scratch space (the result aliases it; the rest is left in no order). For k < len(all) that is a bounded selection — a k-entry heap
// with the worst kept candidate on top, one pass over the rest — so
// asking for ten of 16,000 never sorts the 16,000.
func RankOffenders(all []KeyCount, k int) []KeyCount {
	k = max(k, 0)
	if k < len(all) {
		heap := all[:k]
		sift := func(i int) {
			for {
				worst := i
				for c := 2*i + 1; c <= 2*i+2 && c < k; c++ {
					if offenderOrder(heap[c], heap[worst]) > 0 {
						worst = c
					}
				}
				if worst == i {
					return
				}
				heap[i], heap[worst] = heap[worst], heap[i]
				i = worst
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			sift(i)
		}
		for _, kc := range all[k:] {
			if k > 0 && offenderOrder(kc, heap[0]) < 0 {
				heap[0] = kc
				sift(0)
			}
		}
		all = heap
	}
	slices.SortFunc(all, offenderOrder)
	return all
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
