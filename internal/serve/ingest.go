package serve

import (
	"bytes"
	"errors"
	"net/http"
	"slices"
	"sync"
	"time"

	"titanre/internal/console"
)

// The ingest pipeline.
//
//	POST /ingest ──▶ slot (one of QueueDepth; none free: 429, before any
//	                   │   decode work)
//	                   ▼
//	             decode, in the request's own goroutine (fast-path
//	                   │ decode, regex fallback; with a journal open the
//	                   │ decoder's renderings are kept and framed as the
//	                   │ batch's journal records), then 202
//	                   ▼ one buffered channel, in hand-off order
//	             applier ×1 (journal write-ahead: one Write of those
//	                         records, one commit; then applyBatch: alert
//	                         engine, precursor warner, per-node windows /
//	                         card counters / retirement, retained log,
//	                         alert feed), then the slot is free
//
// net/http already runs every request on a goroutine of its own, so the
// request goroutine is the decode fan-out; everything order-sensitive
// happens in the single applier, in the order batches were handed off. A
// slot is held from before the decode until the batch is applied, so the
// bound covers whichever stage is slowest, and the channel is as deep as
// there are slots, so a hand-off never blocks. A 202 means "decoded and
// queued, applied before any batch whose request begins after this
// response": a client streaming a log in order through one connection
// gets exactly the batch pipeline's alerts and warnings
// (TestStreamMatchesBatchHTTP, TestSequentialConnectionsKeepOrder);
// requests in flight at the same time apply in the order their decodes
// finish.

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
// batches; 32 Ki events (line indices, sequences) is thirty-two; a batch's
// journal records are its lines and eight bytes of frame each, an eighth
// more than a body of 64-byte lines.
var (
	bodyPool  = slicePool[byte]{limit: 1 << 20}
	framePool = slicePool[byte]{limit: 9 << 17}
	eventPool = slicePool[console.Event]{limit: 32 << 10}
	idxPool   = slicePool[int32]{limit: 32 << 10}
	seqPool   = slicePool[uint64]{limit: 32 << 10}
)

// decoder is the fast-armed correlator every request goroutine decodes
// with a copy of: the rules are shared and only read, the counters are
// the batch's own (console.ParseBytes shards a parse the same way).
var decoder = console.NewCorrelator()

// ReadBody reads one POST /ingest body, titand's and titanrouter's alike,
// into a pooled buffer the caller hands back through release when its
// handler returns, whatever ok says. A declared length over limit is
// refused before anything is read and is otherwise only a hint for
// memory: the presize is capped at the pool cap, the body grows as read
// past it, and MaxBytesReader still bounds the read. ok=false means the
// refusal (413 over the limit, 400 unreadable or empty) is already
// written.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, release func(), ok bool) {
	data := bodyPool.get()
	release = func() { bodyPool.put(data) }
	if r.ContentLength > limit {
		http.Error(w, "body over limit", http.StatusRequestEntityTooLarge)
		return nil, release, false
	}
	buf := bytes.NewBuffer(*data)
	if n := min(r.ContentLength, int64(bodyPool.limit-bytes.MinRead)); n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	*data = buf.Bytes()
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, "body over limit", http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "reading body", http.StatusBadRequest)
	case buf.Len() == 0:
		http.Error(w, "empty batch", http.StatusBadRequest)
	default:
		return *data, release, true
	}
	return nil, release, false
}

// decoded is one batch on its way from the request goroutine that
// decoded it to the applier, which hands the pooled slices back after
// applyBatch (retained log and feed copy by value). seqs (parallel to
// events, nil when the batch was untagged) are the global sequence
// numbers feeding the cluster alert-feed collector; frames (nil without a
// journal) holds one journal record per event, in order.
type decoded struct {
	events *[]console.Event
	seqs   *[]uint64
	frames *[]byte
	queued time.Time // hand-off, for the queue_wait stage
}

// seqWindow is how many applied sequence bases a replica remembers. A
// retry is only ever overtaken by sub-batches this replica admits while
// it waits — a 429's backoff, a few hundred milliseconds — so 8,192 is
// seconds of a single router's fastest traffic; it is 64 KiB to scan and,
// once full, slide under admitMu for a tagged batch (~4 µs).
const seqWindow = 8192

// admit takes one of the QueueDepth slots — a slot is a batch admitted
// and not yet applied, so the applier frees it by counting the batch
// applied — and answers with the request's status: 202, the holder must
// call handOff; 429, none is free (load shed); 503, draining. A
// router-tagged batch (tagged, its X-Titan-Seq-Base in base) is first
// looked up in the window of bases already taken, and marked there in the
// same critical section as it takes its slot — so of two copies racing
// in, exactly one is applied, and a copy that was shed is not marked and
// its retry is. A base the window holds is 202 and a duplicate: not to be
// handed off. The window is the last seqWindow bases in admission order;
// seqFloor is one past the largest it has forgotten, and a base below it
// is 409: refused rather than guessed at. Untagged batches do none of
// this.
func (s *Server) admit(base uint64, tagged bool) (status int, duplicate bool) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	switch {
	case s.closed:
		return http.StatusServiceUnavailable, false
	case tagged && slices.Contains(s.seqSeen, base):
		return http.StatusAccepted, true
	case tagged && base < s.seqFloor:
		return http.StatusConflict, false
	case s.admitted.Load()-s.appliedBatches.Load() >= uint64(s.cfg.QueueDepth):
		return http.StatusTooManyRequests, false
	}
	if tagged {
		if len(s.seqSeen) == seqWindow {
			s.seqFloor = max(s.seqFloor, s.seqSeen[0]+1)
			s.seqSeen = s.seqSeen[:copy(s.seqSeen, s.seqSeen[1:])]
		}
		s.seqSeen = append(s.seqSeen, base)
	}
	s.admitted.Add(1)
	s.decoding.Add(1)
	return http.StatusAccepted, false
}

// handOff decodes an admitted body on the calling request's goroutine
// and queues the events for the applier. seqBase and positions are the
// router's global line-sequence tags (see SeqBaseHeader): positions[j]
// is the original-batch line index of the body's j-th line, so the event
// decoded from line j carries global sequence seqBase + positions[j];
// positions == nil means an untagged direct ingest. An Event holds no
// reference into its line, so body is the caller's again on return.
func (s *Server) handOff(body []byte, lines int, seqBase uint64, positions []int32, start time.Time) {
	defer s.decoding.Done()
	c := *decoder
	events := eventPool.get()
	// With a journal open (WarmStart opens it before any ingest) the
	// decoder keeps what its gate renders, framed, for the applier to
	// write: a clean line is its own rendering, so the body's length and a
	// frame a line is room for all of it.
	var d console.Decoder
	var frames *[]byte
	if s.journal.Load() != nil {
		frames = framePool.get()
		d = frameDecoder(slices.Grow(*frames, len(body)+lines*walFrameSize))
	}
	var seqs *[]uint64
	if positions != nil {
		// Seq-tagged sub-batch from the router: decode with line
		// indices so each event maps back to its global sequence.
		idxs := idxPool.get()
		*events, *idxs = c.AppendBytes(*events, *idxs, body, true, &d)
		seqs = seqPool.get()
		sq := slices.Grow(*seqs, len(*idxs))
		for _, li := range *idxs {
			sq = append(sq, seqBase+uint64(positions[li]))
		}
		*seqs = sq
		idxPool.put(idxs)
	} else {
		*events, _ = c.AppendBytes(*events, nil, body, false, &d)
	}
	if frames != nil {
		*frames = d.Buf
	}
	m := s.metrics
	m.linesAccepted.Add(uint64(lines))
	m.events.Add(uint64(len(*events)))
	m.dropped.Add(uint64(c.Dropped))
	m.malformed.Add(uint64(c.Malformed))
	m.oversized.Add(uint64(c.Oversized))
	m.fastHits.Add(uint64(c.FastHits))
	m.fastFallbacks.Add(uint64(c.FastFallbacks))
	s.handoff <- decoded{events: events, seqs: seqs, frames: frames, queued: m.observeStage(stageDecode, start)}
}

// applier is the single goroutine that changes online state: it takes
// batches in hand-off order, journals them and applies them.
//
// With a journal open, every event's record is written (write-ahead)
// before it is applied: the journal sees the exact arrival-order stream
// the detectors consume, so replaying it after a crash reconstructs the
// same state. One commit per batch bounds the fsync rate under the
// "always" policy to the batch rate.
func (s *Server) applier() {
	defer s.applyWG.Done()
	for b := range s.handoff {
		if g, _ := s.stallGate.Load().(chan struct{}); g != nil {
			<-g
		}
		start := s.metrics.observeStage(stageQueueWait, b.queued)
		if b.frames != nil {
			s.journal.Load().appendFrames(*b.frames, len(*b.events))
			start = s.metrics.observeStage(stageJournal, start)
		}
		var seqs []uint64
		if b.seqs != nil {
			seqs = *b.seqs
		}
		s.applyBatch(*b.events, seqs, s.cfg.RetainEvents, false)
		s.metrics.observeStage(stageApply, start)
		eventPool.put(b.events)
		seqPool.put(b.seqs)
		framePool.put(b.frames)
		s.appliedBatches.Add(1) // frees the batch's slot
	}
}

// applyBatch is the one apply step, shared by the live applier and both
// warm-start replays (segments or flat log, then journal): every event
// through applyEventLocked under stateMu, into the retained log when
// retain is set, then the batch into the alert feed and events_applied.
// seqs (parallel to events) are the router's global sequences; nil
// means untagged. A replay does not touch the feed — WarmStart restores
// it from its own snapshot.
func (s *Server) applyBatch(events []console.Event, seqs []uint64, retain, replay bool) {
	s.stateMu.Lock()
	for _, ev := range events {
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
}
