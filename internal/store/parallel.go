package store

import (
	"runtime"
	"sync"
	"sync/atomic"

	"titanre/internal/console"
)

// Query execution: one fold over (sealed segments, retained tail,
// matcher), segment-parallel. Sealed segments are immutable (and,
// mapped, read-only pages), so independent workers can evaluate them
// concurrently with no locking at all: each worker folds whole segments
// into its own private accumulator, pulling segment indexes off one
// atomic counter, and the partials merge afterwards. Because every merge
// operation is commutative and associative (cell counts add, first/last
// take min/max) and the final Doc render sorts canonically, the document
// is byte-identical at any worker count and any assignment of segments
// to workers — the same determinism discipline the parallel simulator
// and report renderer follow.

// queryWorkers resolves a worker-count request: <=0 means GOMAXPROCS,
// and there is never a reason to run more workers than segments.
func queryWorkers(workers, segs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > segs {
		workers = segs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// accumulator is what fold needs of Rollup and Top: a row sink whose
// per-worker partials merge.
type accumulator[A any] interface {
	rowSink
	Merge(A)
}

// fold is the one query loop: sealed segments through gather.segment
// (fanned over workers, each with a private accumulator from newAcc and
// its own gather, merged afterwards), then the retained tail through
// gather.events, all under one matcher. workers <= 0 uses GOMAXPROCS.
func fold[A accumulator[A]](newAcc func() A, segs []*Segment, tail []console.Event, m *Matcher, workers int) A {
	root := newAcc()
	rows := newGather(root)
	workers = queryWorkers(workers, len(segs))
	if workers <= 1 {
		for _, seg := range segs {
			rows.segment(seg, m)
		}
	} else {
		partials := make([]A, workers)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range partials {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				part := newAcc()
				rows := newGather(part)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(segs) {
						break
					}
					rows.segment(segs[i], m)
				}
				partials[w] = part
			}(w)
		}
		wg.Wait()
		for _, part := range partials {
			root.Merge(part)
		}
	}
	rows.events(tail, m)
	return root
}

// ParallelRollup evaluates one rollup over sealed segments concurrently,
// restricted to rows matching m (nil = all), then folds the retained
// tail through the identical kernel. workers <= 0 uses GOMAXPROCS; the
// rendered document is byte-identical at any width.
func ParallelRollup(segs []*Segment, tail []console.Event, spec RollupSpec, m *Matcher, workers int) (RollupDoc, error) {
	root, err := ParallelRollupAcc(segs, tail, spec, m, workers)
	if err != nil {
		return RollupDoc{}, err
	}
	return root.Doc(), nil
}

// ParallelRollupAcc is ParallelRollup stopping short of the render: it
// returns the merged accumulator itself, for callers that need the raw
// cells — the replica side of a cluster query exports them as a
// RollupPartial for the router to merge.
func ParallelRollupAcc(segs []*Segment, tail []console.Event, spec RollupSpec, m *Matcher, workers int) (*Rollup, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m = narrow(m, spec.FilterCode, spec.Code, spec.Since, spec.Until)
	return fold(func() *Rollup { return newRollup(spec) }, segs, tail, m, workers), nil
}

// ParallelTop evaluates one offender ranking over sealed segments
// concurrently, restricted to rows matching m (nil = all), then folds
// the retained tail. Byte-identical at any worker count.
func ParallelTop(segs []*Segment, tail []console.Event, spec TopSpec, m *Matcher, workers int) (TopDoc, error) {
	root, err := ParallelTopAcc(segs, tail, spec, m, workers)
	if err != nil {
		return TopDoc{}, err
	}
	return root.Doc(), nil
}

// ParallelTopAcc is ParallelTop stopping short of the render (see
// ParallelRollupAcc).
func ParallelTopAcc(segs []*Segment, tail []console.Event, spec TopSpec, m *Matcher, workers int) (*Top, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m = narrow(m, spec.FilterCode, spec.Code, spec.Since, spec.Until)
	return fold(func() *Top { return newTop(spec) }, segs, tail, m, workers), nil
}
