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

// accumulator is what fold needs of Rollup, Top and topCounts: a row sink
// whose per-worker partials merge, and go back to their pool after.
type accumulator[A any] interface {
	rowSink
	Merge(A)
	Release()
}

// scan is the snapshot one query folds — sealed segments, retained tail,
// matcher — and what evaluating the matcher against each segment gave:
// the pass that first reaches a segment builds its selection, in words
// lent by the scan, and a later pass over the same scan (a count-first
// Top's detail pass) walks the same bitmaps instead of rebuilding them.
type scan struct {
	segs []*Segment
	tail []console.Event
	m    *Matcher // nil = every row

	// Per segment i, when m is set: its selection once sels[i].done,
	// built in words[offs[i]:offs[i+1]]. Workers touch disjoint indexes.
	sels  []selection
	offs  []int
	words []uint64

	visited atomic.Int64 // rows the fold's gathers handed to accumulators, every pass
}

type selection struct {
	bits bitmap
	kind segMatch
	done bool
}

var scanPool = sync.Pool{New: func() any { return new(scan) }}

func newScan(segs []*Segment, tail []console.Event, m *Matcher) *scan {
	sc := scanPool.Get().(*scan)
	sc.segs, sc.tail, sc.m = segs, tail, m
	sc.visited.Store(0)
	if m != nil {
		if cap(sc.sels) < len(segs) {
			sc.sels = make([]selection, len(segs))
		}
		sc.sels = sc.sels[:len(segs)]
		clear(sc.sels)
		sc.offs = append(sc.offs[:0], 0)
		for _, s := range segs {
			sc.offs = append(sc.offs, sc.offs[len(sc.offs)-1]+(s.Len()+63)/64)
		}
		if need := sc.offs[len(segs)]; cap(sc.words) < need {
			sc.words = make([]uint64, need)
		}
	}
	return sc
}

// release returns the scan, letting go of the snapshot it pinned.
func (sc *scan) release() {
	sc.segs, sc.tail, sc.m = nil, nil, nil
	if 8*cap(sc.words) <= maxPooledBytes {
		scanPool.Put(sc)
	}
}

// sel is segment i's selection, evaluated on first use.
func (sc *scan) sel(i int) (bitmap, segMatch) {
	if sc.m == nil {
		return bitmap{}, matchAll
	}
	sel := &sc.sels[i]
	if !sel.done {
		lo, hi := sc.offs[i], sc.offs[i+1]
		sel.bits, sel.kind = sc.m.segmentBits(sc.segs[i], sc.words[lo:lo:hi])
		sel.done = true
	}
	return sel.bits, sel.kind
}

// fold is the one query loop: sealed segments through gather.segment
// (fanned over workers, each with a private accumulator from newAcc and
// its own gather, merged afterwards), then the retained tail through
// gather.events, all under the scan's matcher. workers <= 0 uses
// GOMAXPROCS.
func fold[A accumulator[A]](newAcc func() A, sc *scan, workers int) A {
	root := newAcc()
	rows := newGather(root)
	defer rows.release()
	workers = queryWorkers(workers, len(sc.segs))
	if workers <= 1 {
		for i, seg := range sc.segs {
			sel, kind := sc.sel(i)
			rows.segment(seg, sel, kind)
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
				defer rows.release()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sc.segs) {
						break
					}
					sel, kind := sc.sel(i)
					rows.segment(sc.segs[i], sel, kind)
				}
				sc.visited.Add(rows.visited)
				partials[w] = part
			}(w)
		}
		wg.Wait()
		for _, part := range partials {
			root.Merge(part)
			part.Release()
		}
	}
	rows.events(sc.tail, sc.m)
	sc.visited.Add(rows.visited)
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
	defer root.Release()
	return root.Doc(), nil
}

// ParallelRollupAcc is ParallelRollup stopping short of the render: it
// returns the merged accumulator itself, for callers that need the raw
// cells — the replica side of a cluster query exports them as a
// RollupPartial for the router to merge. The accumulator is borrowed:
// Release it once its Doc or Partial is taken.
func ParallelRollupAcc(segs []*Segment, tail []console.Event, spec RollupSpec, m *Matcher, workers int) (*Rollup, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc := newScan(segs, tail, m)
	defer sc.release()
	root := fold(func() *Rollup { return newRollup(spec) }, sc, workers)
	root.visited = sc.visited.Load()
	return root, nil
}

// ParallelTop evaluates one offender ranking over sealed segments
// concurrently, restricted to rows matching m (nil = all), then folds
// the retained tail. Byte-identical at any worker count.
func ParallelTop(segs []*Segment, tail []console.Event, spec TopSpec, m *Matcher, workers int) (TopDoc, error) {
	root, err := ParallelTopAcc(segs, tail, spec, m, workers, false)
	if err != nil {
		return TopDoc{}, err
	}
	defer root.Release()
	return root.Doc(), nil
}

// ParallelTopAcc is ParallelTop stopping short of the render (see
// ParallelRollupAcc). A ranking renders K cards, so unless the caller
// needs everyKey — it will export the accumulator as a Partial, which a
// router can only rank after merging — or asked for every key (K <= 0),
// the fold is count-first: one pass keeps nothing but a count per key,
// the counts alone pick the K winners (the order is count descending,
// key ascending), and a second pass over the same scan feeds the detail
// kernel only the winners' rows. The accumulator then holds the winners
// alone: its Doc is the every-key accumulator's Doc, its Partial is not
// defined. By node both passes read the segments' node indexes: the
// count pass takes a segment the matcher keeps whole from its run
// lengths, and the detail pass reads the winners' rows alone. A ranking
// by code is the exception: its row is a count and two times, no
// per-code breakdown, so one detail pass is already a counting pass.
func ParallelTopAcc(segs []*Segment, tail []console.Event, spec TopSpec, m *Matcher, workers int, everyKey bool) (*Top, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc := newScan(segs, tail, m)
	defer sc.release()
	if everyKey || spec.K <= 0 || spec.By == TopByCode {
		root := fold(func() *Top { return newTop(spec, nil) }, sc, workers)
		root.visited = sc.visited.Load()
		return root, nil
	}
	counts := fold(func() *topCounts { return newTopCounts(spec.By) }, sc, workers)
	defer counts.Release()
	counts.keepTop(spec.K)
	root := fold(func() *Top { return newTop(spec, counts) }, sc, workers)
	root.only, root.total = nil, counts.total // counts goes back to its pool; the rows were its to count
	root.visited = sc.visited.Load()
	return root, nil
}
