package serve

import (
	"bytes"
	"slices"
	"sync"
	"time"

	"titanre/internal/console"
)

// The ingest pipeline.
//
//	POST /ingest ──▶ admission (bounded queue, shed on full)
//	                   │ seq assigned per accepted batch
//	                   ▼
//	             parse workers ×N (fast-path decode, regex fallback)
//	                   │ out of order
//	                   ▼
//	             reorder buffer (delivers in seq order)
//	                   │
//	                   ▼
//	             applier ×1 (journal write-ahead, then applyBatch: alert
//	                         engine, precursor warner, per-node windows /
//	                         card counters / retirement, retained log,
//	                         alert feed)
//
// Parsing — the expensive step — fans out across workers; everything
// order-sensitive happens in the single applier, in the admission order
// the reorder buffer re-establishes, so the pipeline output for a given
// admission order is deterministic: a client streaming a log in order
// through one connection gets exactly the batch pipeline's alerts and
// warnings (TestStreamMatchesBatchHTTP). One stage of each kind, and
// only the stage whose work dwarfs a goroutine hop is fanned out.

// slicePool recycles a batch's buffers along the pipeline that owns
// them. A buffer that grew past limit elements is left to the collector,
// so one giant batch does not pin its memory for the life of the daemon.
type slicePool[T any] struct {
	pool  sync.Pool
	limit int
}

func (p *slicePool[T]) get() *[]T {
	if s, ok := p.pool.Get().(*[]T); ok {
		return s
	}
	return new([]T)
}

func (p *slicePool[T]) put(s *[]T) {
	if s != nil && cap(*s) <= p.limit {
		*s = (*s)[:0]
		p.pool.Put(s)
	}
}

// The pool caps: a 1 MiB body is eight of the replay client's 1,024-line
// batches; 32 Ki events (line indices, sequences) is thirty-two.
var (
	bodyPool  = slicePool[byte]{limit: 1 << 20}
	eventPool = slicePool[console.Event]{limit: 32 << 10}
	idxPool   = slicePool[int32]{limit: 32 << 10}
	seqPool   = slicePool[uint64]{limit: 32 << 10}
)

// batch is one admitted /ingest body, in a bodyPool buffer the parse
// worker hands back once the lines are decoded. seqBase and positions
// are the router's global line-sequence tags (see SeqBaseHeader):
// positions[j] is the original-batch line index of the body's j-th line,
// so the event decoded from line j carries global sequence seqBase +
// positions[j]. positions == nil means an untagged direct ingest.
type batch struct {
	seq       uint64
	data      *[]byte
	seqBase   uint64
	positions []int32
	queued    time.Time // admission, for the queue_wait stage
}

// parsed is a decoded batch en route to the applier, which hands both
// pooled slices back after applyBatch (journal, retained log and feed
// copy by value). seqs (parallel to events, nil when the batch was
// untagged) are the global sequence numbers feeding the cluster
// alert-feed collector.
type parsed struct {
	seq    uint64
	events *[]console.Event
	seqs   *[]uint64
	ready  time.Time // delivery to the reorder buffer, for reorder_wait
}

// ingestQueue is the bounded admission queue. Sequence numbers are
// assigned under the mutex together with the (non-blocking) enqueue, so
// accepted sequence numbers are dense — the reorder buffer relies on
// that to know when seq n is ready to apply.
type ingestQueue struct {
	mu     sync.Mutex
	ch     chan batch
	next   uint64
	closed bool
}

func newIngestQueue(depth int) *ingestQueue {
	return &ingestQueue{ch: make(chan batch, depth)}
}

// offer admits data, returning ok=false when the queue is full (load
// shed) and closed=true when the server is draining. positions tags
// the batch with global line sequences (nil for direct ingest).
func (q *ingestQueue) offer(data *[]byte, seqBase uint64, positions []int32) (ok, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, true
	}
	select {
	case q.ch <- batch{seq: q.next, data: data, seqBase: seqBase, positions: positions, queued: time.Now()}:
		q.next++
		return true, false
	default:
		return false, false
	}
}

// close stops admission and returns the total number of sequences ever
// assigned; the reorder buffer drains exactly that many.
func (q *ingestQueue) close() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	return q.next
}

func (q *ingestQueue) depth() int { return len(q.ch) }

// reorder delivers parsed batches to the applier in admission order.
type reorder struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready map[uint64]parsed
	next  uint64
	// limit is one past the last seq that will ever arrive; set at
	// drain time (^uint64(0) while the server is live).
	limit uint64
}

func newReorder() *reorder {
	r := &reorder{ready: make(map[uint64]parsed), limit: ^uint64(0)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *reorder) deliver(p parsed) {
	r.mu.Lock()
	r.ready[p.seq] = p
	r.mu.Unlock()
	r.cond.Broadcast()
}

// seal announces that no sequence at or beyond limit will arrive.
func (r *reorder) seal(limit uint64) {
	r.mu.Lock()
	r.limit = limit
	r.mu.Unlock()
	r.cond.Broadcast()
}

// take blocks until the next in-order batch is available; ok=false means
// the stream is sealed and fully drained.
func (r *reorder) take() (p parsed, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if p, have := r.ready[r.next]; have {
			delete(r.ready, r.next)
			r.next++
			return p, true
		}
		if r.next >= r.limit {
			return parsed{}, false
		}
		r.cond.Wait()
	}
}

// parseWorker drains the admission queue. Each worker owns a fast-armed
// correlator and decoder; the per-worker operational counters are folded
// into the shared metrics after every batch so /metrics lags a batch at
// most.
func (s *Server) parseWorker() {
	defer s.parseWG.Done()
	c := console.NewCorrelator()
	var prevDropped, prevMalformed, prevOversized, prevHits, prevFallbacks int
	for b := range s.queue.ch {
		if g, _ := s.stallGate.Load().(chan struct{}); g != nil {
			<-g
		}
		start := s.metrics.observeStage(stageQueueWait, b.queued)
		events := eventPool.get()
		var seqs *[]uint64
		if b.positions != nil {
			// Seq-tagged sub-batch from the router: decode with line
			// indices so each event maps back to its global sequence.
			idxs := idxPool.get()
			*events, *idxs = c.AppendBytes(*events, *idxs, *b.data, true)
			seqs = seqPool.get()
			sq := slices.Grow(*seqs, len(*idxs))
			for _, li := range *idxs {
				sq = append(sq, b.seqBase+uint64(b.positions[li]))
			}
			*seqs = sq
			idxPool.put(idxs)
		} else {
			*events, _ = c.AppendBytes(*events, nil, *b.data, false)
		}
		lines := countLines(*b.data)
		bodyPool.put(b.data) // an Event holds no reference into its line
		s.metrics.linesAccepted.Add(uint64(lines))
		s.metrics.events.Add(uint64(len(*events)))
		s.metrics.dropped.Add(uint64(c.Dropped - prevDropped))
		s.metrics.malformed.Add(uint64(c.Malformed - prevMalformed))
		s.metrics.oversized.Add(uint64(c.Oversized - prevOversized))
		s.metrics.fastHits.Add(uint64(c.FastHits - prevHits))
		s.metrics.fastFallbacks.Add(uint64(c.FastFallbacks - prevFallbacks))
		prevDropped, prevMalformed, prevOversized = c.Dropped, c.Malformed, c.Oversized
		prevHits, prevFallbacks = c.FastHits, c.FastFallbacks
		s.reorder.deliver(parsed{seq: b.seq, events: events, seqs: seqs, ready: s.metrics.observeStage(stageDecode, start)})
	}
}

// countLines counts newline-delimited records the way the parser will:
// one per newline, plus a final unterminated line.
func countLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// applier is the single goroutine that changes online state: it takes
// batches in admission order, journals them and applies them.
//
// With a journal open, every event is appended (write-ahead) before it
// is applied: the journal sees the exact arrival-order stream the
// detectors consume, so replaying it after a crash reconstructs the
// same state. One Commit per batch bounds the fsync rate under the
// "always" policy to the batch rate.
func (s *Server) applier() {
	defer s.applyWG.Done()
	for {
		p, ok := s.reorder.take()
		if !ok {
			return
		}
		start := s.metrics.observeStage(stageReorderWait, p.ready)
		if j := s.journal.Load(); j != nil {
			j.appendEvents(*p.events)
			start = s.metrics.observeStage(stageJournal, start)
		}
		var seqs []uint64
		if p.seqs != nil {
			seqs = *p.seqs
		}
		_ = s.applyBatch(*p.events, seqs, s.cfg.RetainEvents, false) // only a replay can fail
		s.metrics.observeStage(stageApply, start)
		eventPool.put(p.events)
		seqPool.put(p.seqs)
		s.appliedBatches.Add(1)
	}
}

// applyBatch is the one apply step, shared by the live applier and both
// warm-start replays (segments or flat log, then journal): every event
// through applyEventLocked under stateMu, into the retained log when
// retain is set, then the batch into the alert feed and events_applied.
// seqs (parallel to events) are the router's global sequences; nil
// means untagged. A replay does not touch the feed — WarmStart restores
// it from its own snapshot — and evaluates the serve.warm.replay
// failpoint before each event, whose injected error is the only one
// applyBatch returns.
func (s *Server) applyBatch(events []console.Event, seqs []uint64, retain, replay bool) error {
	s.stateMu.Lock()
	for _, ev := range events {
		if replay {
			if err := fpWarmReplay.Eval(); err != nil {
				s.stateMu.Unlock()
				return err
			}
		}
		s.applyEventLocked(ev)
		if retain {
			s.events = append(s.events, ev)
		}
	}
	s.stateMu.Unlock()
	if s.feed != nil && !replay {
		// Tagged events carry their global sequence; an untagged event
		// taints completeness (the router can no longer prove global
		// replay exactness).
		if seqs != nil {
			for i, ev := range events {
				s.feed.record(ev, seqs[i])
			}
		} else {
			s.feed.markUntagged(len(events))
		}
	}
	s.metrics.eventsApplied.Add(uint64(len(events)))
	return nil
}
