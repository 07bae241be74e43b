package router

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/durable"
	"titanre/internal/ingest"
	"titanre/internal/serve"
	"titanre/internal/sim"
)

// One fleet under test.
//
// A fleet is a router, its replicas and the single-daemon reference in
// one process, wired over an in-memory http.RoundTripper: no socket, no
// port to rebind, no counter polled to find a moment. Every fault is an
// event keyed by transport position — "the at-th POST /ingest the wire
// carries to replica r" — so a schedule is a list of faults, replays
// exactly, and shrinks by dropping faults. The wire logs what it carried:
// which lines each replica took, under which sequence, and what the
// router was last told about each sub-batch. After every schedule the
// same things are held against that log (check): the books close on
// router and replicas, no line is applied twice, every line the router
// booked accepted is applied, and every clusterReadPaths answer is
// byte-identical to one daemon fed exactly the lines the log says the
// fleet holds, in sequence order.

// action is one kind of fault.
type action uint8

const (
	dropRequest   action = iota // the sub-batch is lost before the replica sees it
	dropAck                     // the replica applies it; the 202 is lost
	duplicate                   // the wire delivers it twice
	hold                        // it waits until the next sub-batch to that replica has gone first
	hang                        // the replica applies it and never answers: the batch's deadline passes
	restart                     // the replica drains, snapshots and starts warm, refusing n%3 requests between
	crash                       // the replica loses power at crashCuts[n%7] with n/7%4 acked batches queued
	wedge                       // the replica's journal fails its next 1+n writes
	restartRouter               // a new router takes over after the batch in hand
	numActions
	stall action = iota - 1 // first half of a crash: the applier stops, so what is acked queues up
	none                    // no fault at this position
)

var actionNames = [...]string{"drop-request", "drop-ack", "duplicate", "hold", "hang", "restart", "crash", "wedge", "restart-router", "stall"}

// crashCuts are the journal and seal boundaries a replica can lose power
// at, each named for the step it comes just before; the seal ones are
// reached by compacting once the cut is armed.
var crashCuts = [...]struct {
	name string
	op   durable.Op
	path string // what the operation's path contains
}{
	{"serve.journal.append", durable.OpWrite, "/journal/"},
	{"serve.journal.sync", durable.OpSync, "/journal/"},
	{"serve.compact.chunk", durable.OpCreate, "/segments/"},
	{"store.segment.write", durable.OpWrite, "/segments/"},
	{"store.segment.sync", durable.OpSync, "/segments/"},
	{"store.segment.rename", durable.OpRename, "/segments/"},
	{"store.dir.sync", durable.OpSyncDir, "/segments"},
}

// fault is one scheduled event.
type fault struct {
	act     action
	replica int
	at      int // transport position on that replica
	n       int // the action's own number, see the action list
}

func (f fault) cut() int    { return f.n % len(crashCuts) }
func (f fault) queued() int { return f.n / len(crashCuts) % victimQueue }

func (f fault) String() string {
	s := fmt.Sprintf("%s replica %d at %d", actionNames[f.act], f.replica, f.at)
	switch f.act {
	case restart:
		s += fmt.Sprintf(" (down for %d)", f.n%3)
	case crash:
		s += fmt.Sprintf(" (%s, %d queued)", crashCuts[f.cut()].name, f.queued())
	case wedge:
		s += fmt.Sprintf(" (%d writes)", 1+f.n)
	}
	return s
}

// schedule is one run: a fleet shape, a stream and its faults.
type schedule struct {
	replicas int
	lines    int     // events of clusterSim streamed (0 = scheduleLines)
	corrupt  float64 // rate of ingest.CorruptDataset's mutators over the lines
	seed     int64   // their seed
	faults   []fault
}

const (
	scheduleLines = 6144 // a week of the simulated month: five alerts, 24 batches
	batchLines    = 256
	victimQueue   = 4 // QueueDepth of a replica that crashes: what acked-then-lost is bounded by
)

func (sc schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d replicas, corrupt %.2f/%d", sc.replicas, sc.corrupt, sc.seed)
	for _, f := range sc.faults {
		fmt.Fprintf(&b, "\n  %v", f)
	}
	return b.String()
}

// decodeSchedule reads a schedule out of bytes, so a seed's PRNG and go
// test -fuzz draw from one space: replicas, corruption, then four bytes a
// fault, at most eight. One replica — the first a crash or wedge names —
// is the victim of them all, and the only one given a journal.
func decodeSchedule(data []byte) schedule {
	data = append(slices.Clip(data), 0, 0) // a copy: the fuzzer's bytes are not ours to write past
	sc := schedule{replicas: 2 + int(data[0])%3, seed: int64(data[1])}
	sc.corrupt = [...]float64{0, 0, 0.02, 0.05}[data[1]%4]
	victim := -1
	for data = data[2:]; len(data) >= 4 && len(sc.faults) < 8; data = data[4:] {
		f := fault{action(data[0]) % numActions, int(data[1]) % sc.replicas, int(data[2]) % 24, int(data[3])}
		if f.act == crash || f.act == wedge {
			if victim < 0 {
				victim = f.replica
			}
			f.replica = victim
		}
		sc.faults = append(sc.faults, f)
	}
	return sc
}

// seedSchedule draws a schedule's bytes from one seed.
func seedSchedule(seed uint64) []byte {
	next := func() byte {
		seed = seed*6364136223846793005 + 1442695040888963407
		return byte(seed >> 56)
	}
	data := make([]byte, 2+4*(1+int(next())%6))
	for i := range data {
		data[i] = next()
	}
	return data
}

// clusterSim runs (and memoizes) the one-month simulation every fleet
// test streams from.
var clusterSim = sync.OnceValue(func() []console.Event {
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	return sim.Run(cfg).Events
})

func encodeLog(t testing.TB, events []console.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := console.WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// log renders the schedule's stream: the first lines of the month, passed
// through the dataset corruptor when the schedule asks.
func (sc schedule) log(tb testing.TB) []byte {
	n := sc.lines
	if n == 0 {
		n = scheduleLines
	}
	log := encodeLog(tb, clusterSim()[:n])
	if sc.corrupt == 0 {
		return log
	}
	dir := tb.TempDir()
	path := filepath.Join(dir, dataset.ConsoleFile)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		tb.Fatal(err)
	}
	if _, err := ingest.CorruptDataset(dir, ingest.CorruptOptions{Rate: sc.corrupt, Seed: sc.seed}); err != nil {
		tb.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return log
}

// lineKey names one line of the stream: the router incarnation that
// sequenced it and the sequence it gave. (Sequences alone tell lines
// apart once a later incarnation's sort after an earlier one's; the key
// carries the incarnation so the log is right when they do not.)
type lineKey struct {
	gen int
	seq uint64
}

// sub is one sub-batch as the router knows it.
type sub struct {
	keys []lineKey
	last int // the status the router was last given for it; 0 = an error
}

type subKey struct {
	gen     int
	base    uint64
	replica int
}

// applied is one line in a replica's state.
type applied struct {
	key  lineKey
	line []byte
}

// member is one replica and the wire to it.
type member struct {
	mu      sync.Mutex // the wire is one connection: a request at a time
	idx     int
	cfg     serve.Config
	victim  bool            // journaled: the one replica crash and wedge faults are aimed at
	mem     *durable.Mem    // its file system; nil = none, it never restarts
	srv     *serve.Server   // nil while down
	all     []*serve.Server // every incarnation, for the books
	faults  map[int]fault   // by position
	posts   int             // POSTs the wire has carried here: the next position
	down    int             // POSTs still to refuse before it is back
	parked  []chan struct{} // held requests
	gate    chan struct{}   // non-nil while the applier is stalled
	dead    atomic.Bool     // the crash hook fired
	stream  []applied       // what its state holds, in the order it took it
	took    uint64          // lines the wire saw it take, duplicates apart
	dups    uint64          // lines it answered as duplicates
	maxSub  int             // lines of the largest sub-batch sent to it
	replays int             // events its warm starts replayed
	crashes int
	fired   [none]int // faults the wire reached
}

// fleet is the system under test.
type fleet struct {
	tb      testing.TB
	names   []string
	members []*member
	rt      *Router
	routers []*Router   // every incarnation, for the books
	swap    atomic.Bool // a fault asked for a new router
	moveOn  chan struct{}
	ref     *serve.Server // the single daemon check feeds
	shipped atomic.Int64  // body bytes the replicas have answered reads with

	mu   sync.Mutex
	subs map[subKey]*sub
}

var errRefused = errors.New("fleet: connection refused")

// newFleet builds a router over len(cfgs) replicas on the in-memory
// wire. A config on a durable.Mem (stateConfig) makes that replica
// restartable.
func newFleet(tb testing.TB, cfgs ...serve.Config) *fleet {
	tb.Helper()
	f := &fleet{tb: tb, names: replicaNames(len(cfgs)), subs: map[subKey]*sub{}}
	f.moveOn = make(chan struct{}, 64) // a place per parked request and to spare: the wire never blocks on the client
	for i, cfg := range cfgs {
		m := &member{idx: i, cfg: cfg, victim: cfg.JournalDir != "", faults: map[int]fault{}}
		m.mem, _ = cfg.FS.(*durable.Mem)
		f.members = append(f.members, m)
		m.start(tb)
	}
	f.newRouter(Config{})
	tb.Cleanup(func() {
		servers := []*serve.Server{f.ref}
		for _, m := range f.members {
			m.release()
			servers = append(servers, m.all...)
		}
		for _, s := range servers {
			if s == nil {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := s.Shutdown(ctx); err != nil {
				tb.Errorf("shutdown: %v", err)
			}
			cancel()
		}
	})
	return f
}

// stateDir is every replica's state directory, each on its own
// durable.Mem.
const stateDir = "/state"

// stateConfig is titand -warm-dir stateDir [-journal -journal-fsync
// always] on a file system of its own: a replica that can restart from
// it and, journaled, survive a crash there.
func stateConfig(journal bool) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.FS = durable.NewMem()
	cfg.SnapshotDir = stateDir
	if journal {
		cfg.QueueDepth = victimQueue
		cfg.CompactDir = filepath.Join(stateDir, dataset.SegmentsDir)
		cfg.CompactAge = time.Hour
		cfg.CompactMin = 1
		cfg.CompactInterval = time.Hour // idle: a crash fault compacts when it wants a seal
		cfg.JournalDir = filepath.Join(stateDir, "journal")
		cfg.JournalFsync = serve.FsyncAlways
	}
	return cfg
}

// newRouter puts a fresh router incarnation in front of the replicas.
func (f *fleet) newRouter(cfg Config) {
	cfg.Replicas = f.names
	rt, err := New(cfg)
	if err != nil {
		f.tb.Fatal(err)
	}
	rt.client.Transport = wire{f, len(f.routers)}
	f.rt = rt
	f.routers = append(f.routers, rt)
}

// wire is one router incarnation's end of the fleet's transport: the
// incarnation is part of a line's name in the log.
type wire struct {
	*fleet
	gen int
}

// start brings the replica up, warm from its directory when it has one.
func (m *member) start(tb testing.TB) {
	m.srv = serve.NewServer(m.cfg)
	m.all = append(m.all, m.srv)
	if m.mem == nil {
		return
	}
	ws, err := m.srv.WarmStart(stateDir)
	if err != nil {
		tb.Fatalf("replica %d warm start: %v", m.idx, err)
	}
	m.replays += ws.Replayed + ws.JournalReplayed
	if m.dead.Swap(false) {
		// Back from a crash: its state is the prefix of what it had taken
		// that reached the frozen directory.
		m.keepEvents(ws.Replayed + ws.JournalReplayed)
	}
}

// keepEvents cuts the stream to the lines that decode into its first n
// events.
func (m *member) keepEvents(n int) {
	c := console.NewCorrelator()
	for i, a := range m.stream {
		if n == 0 {
			m.stream = m.stream[:i]
			return
		}
		if evs, err := c.ParseBytes(a.line, 1); err == nil {
			n -= len(evs)
		}
	}
}

func (m *member) quiesce(tb testing.TB) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.srv.Quiesce(ctx); err != nil {
		tb.Fatalf("replica %d: %v", m.idx, err)
	}
}

// release lets a stalled applier go.
func (m *member) release() {
	if m.gate != nil {
		close(m.gate)
		m.gate = nil
	}
}

// stop drains the replica the way SIGTERM does.
func (m *member) stop(tb testing.TB) {
	m.release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.srv.Shutdown(ctx); err != nil {
		tb.Fatalf("replica %d drain: %v", m.idx, err)
	}
	m.srv = nil
}

// freeze is the crash: the victim's file system is the power-cut image
// of its own at the boundary the fault names, and the replica is dead to
// the wire from now on. The abandoned server runs on; nothing it does
// after this reaches the image. False when the run never reached that
// boundary.
func (m *member) freeze(ft fault) bool {
	cuts := m.mem.Cuts()
	m.mem.Record(false)
	at := crashCuts[ft.cut()]
	i := slices.IndexFunc(cuts, func(c durable.Cut) bool { return c.Op == at.op && strings.Contains(c.Path, at.path) })
	if i < 0 {
		return false
	}
	m.crashes++
	m.mem, m.cfg.FS = cuts[i].Power, cuts[i].Power
	m.dead.Store(true)
	return true
}

// cancelKey carries a client batch's cancel func to the wire, for hang.
type cancelKey struct{}

// RoundTrip is the wire. Reads go straight through; an ingest POST takes
// the next position on its replica and whatever fault is scheduled there.
func (w wire) RoundTrip(req *http.Request) (*http.Response, error) {
	f, gen := w.fleet, w.gen
	m := f.members[slices.Index(f.names, "http://"+req.URL.Host)]
	if req.Method != http.MethodPost {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.srv == nil {
			m.start(f.tb)
		}
		rec := httptest.NewRecorder()
		m.srv.Handler().ServeHTTP(rec, httptest.NewRequest(req.Method, req.URL.RequestURI(), nil))
		f.shipped.Add(int64(rec.Body.Len()))
		return rec.Result(), nil
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	base, keys := seqTags(gen, req.Header)
	answer := func(resp *http.Response, err error) (*http.Response, error) {
		// The last answer is what the router's books go by.
		f.mu.Lock()
		defer f.mu.Unlock()
		k := subKey{gen, base, m.idx}
		if f.subs[k] == nil {
			f.subs[k] = &sub{keys: keys}
		}
		f.subs[k].last = 0
		if err == nil {
			f.subs[k].last = resp.StatusCode
		}
		return resp, err
	}
	if err := req.Context().Err(); err != nil {
		return answer(nil, err) // as http.Transport: a request whose context has ended is not sent
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	ft, scheduled := m.faults[m.posts]
	m.posts++
	if scheduled {
		m.fired[ft.act]++
	} else {
		ft.act = none
	}
	m.maxSub = max(m.maxSub, len(keys))

	// Before delivery.
	switch ft.act {
	case hold:
		ch := make(chan struct{})
		m.parked = append(m.parked, ch)
		m.mu.Unlock()
		f.moveOn <- struct{}{}
		<-ch
		m.mu.Lock()
	case restart:
		if m.srv != nil {
			m.stop(f.tb)
			m.down = ft.n % 3
		}
	}
	switch {
	case m.down > 0:
		m.down--
		return answer(nil, errRefused)
	case ft.act == dropRequest:
		return answer(nil, errRefused)
	case m.srv == nil:
		m.start(f.tb)
	}
	switch ft.act {
	case stall:
		m.release()
		m.quiesce(f.tb)
		m.gate = make(chan struct{})
		m.srv.StallForTest(m.gate)
	case crash:
		if m.gate == nil {
			m.quiesce(f.tb) // nothing queued: what is acked is applied, exactly
		}
		m.mem.Record(true)
		m.release()
		if crashCuts[ft.cut()].path != "/journal/" {
			m.quiesce(f.tb)
			_, _ = m.srv.CompactNow() // the cut falls in here, if there is anything to seal
		}
	case wedge:
		m.mem.Fail(durable.Fault{Op: durable.OpWrite, Path: "/journal/", N: 1 + ft.n, Err: syscall.EIO})
	case restartRouter:
		f.swap.Store(true)
	}

	resp := m.deliver(req, body, keys)
	if ft.act == duplicate {
		m.deliver(req, body, keys)
	}
	if m.gate == nil && m.victim {
		// The victim fsyncs every batch and has victimQueue slots; left to
		// itself it would fall behind this wire and shed, and positions would
		// depend on the disk. What it holds acknowledged and unapplied is
		// what a crash fault's stall queued, exactly.
		m.quiesce(f.tb)
	}
	for _, ch := range m.parked {
		close(ch)
	}
	m.parked = nil

	// After delivery.
	switch ft.act {
	case crash:
		if !m.freeze(ft) {
			break // nothing to seal, or no event to journal: the cut was not reached
		}
		m.srv, m.down = nil, 1+ft.n%2
		return answer(nil, errRefused)
	case dropAck:
		return answer(nil, errRefused)
	case hang:
		// The deadline passes. The client's clock is the test's, so it is
		// the batch's context that ends: the router sees what it would.
		if cancel, ok := req.Context().Value(cancelKey{}).(context.CancelFunc); ok {
			cancel()
			return answer(nil, req.Context().Err())
		}
	}
	return answer(resp, nil)
}

// seqTags reads a sub-batch's sequence headers back into line keys.
func seqTags(gen int, h http.Header) (base uint64, keys []lineKey) {
	base, _ = strconv.ParseUint(h.Get(serve.SeqBaseHeader), 10, 64)
	raw, _ := base64.StdEncoding.DecodeString(h.Get(serve.SeqMaskHeader))
	for _, pos := range console.MaskPositions(console.MaskFromBytes(raw)) {
		keys = append(keys, lineKey{gen, base + uint64(pos)})
	}
	return base, keys
}

// deliver hands the replica one copy of the request and logs what it did
// with it.
func (m *member) deliver(req *http.Request, body []byte, keys []lineKey) *http.Response {
	in := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	in.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	m.srv.Handler().ServeHTTP(rec, in)
	if rec.Code == http.StatusAccepted && rec.Header().Get(serve.DuplicateHeader) != "" {
		m.dups += uint64(console.CountLines(body))
	} else if rec.Code == http.StatusAccepted {
		m.took += uint64(console.CountLines(body))
		lines := bytes.SplitAfter(body, []byte("\n"))
		for i, key := range keys {
			m.stream = append(m.stream, applied{key, lines[i]})
		}
	}
	return rec.Result()
}

// get answers path from h in process.
func get(tb testing.TB, h http.Handler, path string) (body []byte, header http.Header) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes(), rec.Header()
}

// clientBooks is the sender's own account, in lines.
type clientBooks struct {
	mu                              sync.Mutex
	offered, accepted, shed, failed uint64
}

// post sends one client batch through rt and books the answer.
func (f *fleet) post(rt *Router, books *clientBooks, source string, body []byte) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	req = req.WithContext(context.WithValue(ctx, cancelKey{}, cancel))
	req.Header.Set(serve.SourceHeader, source)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	lines := uint64(console.CountLines(body))
	books.mu.Lock()
	defer books.mu.Unlock()
	books.offered += lines
	switch rec.Code {
	case http.StatusAccepted:
		books.accepted += lines
	case http.StatusTooManyRequests:
		books.shed += lines
	case http.StatusBadGateway:
		n, _ := strconv.ParseUint(rec.Header().Get("X-Failed-Lines"), 10, 64)
		books.failed += n
		books.accepted += lines - n
	default:
		f.tb.Errorf("router answered %d: %s", rec.Code, rec.Body)
	}
}

// stream sends log through the router a batch at a time, one in flight —
// until a request parks, when the client moves on as a second connection
// would — swaps the router where a fault asked, and settles the fleet:
// everything released, every replica up and caught up.
func (f *fleet) stream(log []byte, source string) *clientBooks {
	books := &clientBooks{}
	var wg sync.WaitGroup
	for len(log) > 0 {
		end := 0
		for n := 0; n < batchLines && end < len(log); n++ {
			if i := bytes.IndexByte(log[end:], '\n'); i >= 0 {
				end += i + 1
			} else {
				end = len(log)
			}
		}
		body := log[:end]
		log = log[end:]
		done := make(chan struct{})
		wg.Add(1)
		go func(rt *Router) {
			defer wg.Done()
			defer close(done)
			f.post(rt, books, source, body)
		}(f.rt)
		select {
		case <-done:
		case <-f.moveOn:
		}
		if f.swap.Swap(false) {
			f.newRouter(Config{})
		}
	}
	for _, m := range f.members {
		m.mu.Lock()
		for _, ch := range m.parked {
			close(ch)
		}
		m.parked = nil
		m.mu.Unlock()
	}
	wg.Wait()
	for _, m := range f.members {
		m.mu.Lock()
		m.release()
		m.down = 0
		if m.srv == nil {
			m.start(f.tb)
		}
		m.quiesce(f.tb)
		m.mu.Unlock()
	}
	return books
}

// report is what one schedule measured.
type report struct {
	fails          []string
	ackedLinesLost int // booked accepted, held by no replica
	linesTwice     int // held more than once
	failedApplied  int // booked failed, held all the same
	crashes        int
	degraded       string // merged /alerts' X-Titan-Degraded
	retries        uint64 // router deliver_retries
	replays        int    // events replica warm starts replayed
	fired          [none]int
	books          *clientBooks
}

func (r *report) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// check holds the settled fleet to the wire's log.
func (f *fleet) check(books *clientBooks) *report {
	r := &report{books: books}
	// What the fleet's state holds: every line of some replica's stream,
	// as often as it is there.
	held := map[lineKey]int{}
	text := map[lineKey][]byte{}
	maxSub, wedged := 0, false
	for _, m := range f.members {
		for _, a := range m.stream {
			held[a.key]++
			text[a.key] = a.line
		}
		r.replays += m.replays
		r.crashes += m.crashes
		for act, n := range m.fired {
			r.fired[act] += n
		}
		r.fired[crash] += m.crashes - m.fired[crash] // those that reached their cut
		if m.crashes > 0 {
			maxSub, wedged = m.maxSub, m.fired[wedge] > 0
		}
	}
	for _, n := range held {
		r.linesTwice += n - 1
	}
	var delivered, failed uint64
	for _, s := range f.subs {
		if s.last != http.StatusAccepted {
			failed += uint64(len(s.keys))
		} else {
			delivered += uint64(len(s.keys))
		}
		for _, key := range s.keys {
			switch {
			case s.last == http.StatusAccepted && held[key] == 0:
				r.ackedLinesLost++
			case s.last != http.StatusAccepted && held[key] > 0:
				r.failedApplied++
			}
		}
	}
	switch {
	case r.crashes == 0 && r.linesTwice+r.ackedLinesLost > 0:
		r.failf("lines_applied_twice = %d, acked_lines_lost = %d", r.linesTwice, r.ackedLinesLost)
	case !wedged && (r.linesTwice > maxSub || r.ackedLinesLost > victimQueue*maxSub):
		// A crash may lose what was acked and still queued, and apply twice
		// the one sub-batch whose ack it ate (the window is not journaled).
		r.failf("after a crash: lines_applied_twice = %d (bound: one sub-batch, %d lines), acked_lines_lost = %d (bound: %d batches)",
			r.linesTwice, maxSub, r.ackedLinesLost, victimQueue)
	}

	// The router's books, against themselves, the client's and the wire's.
	var st Stats
	for _, rt := range f.routers {
		s := rt.StatsNow()
		st.LinesOffered += s.LinesOffered
		st.LinesDelivered += s.LinesDelivered
		st.LinesShed += s.LinesShed
		st.LinesFailed += s.LinesFailed
		st.DeliverRetries += s.DeliverRetries
		for name, src := range s.Sources {
			if src.OfferedLines != src.AcceptedLines+src.ShedLines+src.FailedLines || src.InflightLines != 0 {
				r.failf("router source %q books do not close: %+v", name, src)
			}
		}
	}
	r.retries = st.DeliverRetries
	if st.LinesOffered != st.LinesDelivered+st.LinesShed+st.LinesFailed {
		r.failf("router books do not close: offered %d != accepted %d + shed %d + failed %d", st.LinesOffered, st.LinesDelivered, st.LinesShed, st.LinesFailed)
	}
	if st.LinesOffered != books.offered || st.LinesDelivered != books.accepted || st.LinesShed != books.shed || st.LinesFailed != books.failed {
		r.failf("router books %d/%d/%d/%d (offered/accepted/shed/failed), the client saw %d/%d/%d/%d",
			st.LinesOffered, st.LinesDelivered, st.LinesShed, st.LinesFailed, books.offered, books.accepted, books.shed, books.failed)
	}
	if st.LinesDelivered != delivered || st.LinesFailed != failed {
		r.failf("router booked %d accepted / %d failed lines; the wire last answered 202 for %d, otherwise for %d", st.LinesDelivered, st.LinesFailed, delivered, failed)
	}

	// Every replica's books: lines in == decoded + chatter + malformed in
	// every incarnation, and together the lines the wire saw it take —
	// duplicates booked apart, as the lines it acknowledged without taking.
	for _, m := range f.members {
		var took, dups uint64
		for i, s := range m.all {
			rs := s.StatsNow()
			if rs.LinesAccepted != rs.Events+rs.Chatter+rs.Malformed {
				r.failf("replica %d.%d books do not close: %d lines != %d decoded + %d chatter + %d malformed", m.idx, i, rs.LinesAccepted, rs.Events, rs.Chatter, rs.Malformed)
			}
			took += rs.LinesAccepted
			dups += rs.LinesDuplicate
		}
		if took != m.took || dups != m.dups {
			r.failf("replica %d booked %d lines accepted and %d duplicate, the wire saw it take %d and acknowledge %d more", m.idx, took, dups, m.took, m.dups)
		}
	}

	// The reference: one daemon fed exactly the lines the fleet holds, in
	// sequence order — once each; after a crash, as often as they are held,
	// so the comparison is still the restarted replica's prefix property
	// and lines_applied_twice is counted above, not here.
	keys := make([]lineKey, 0, len(held))
	for key, n := range held {
		keys = append(keys, key)
		for ; n > 1 && r.crashes > 0; n-- {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].gen != keys[j].gen {
			return keys[i].gen < keys[j].gen
		}
		return keys[i].seq < keys[j].seq
	})
	f.ref = serve.NewServer(serve.DefaultConfig())
	var body []byte
	for i, key := range keys {
		body = append(bytes.TrimSuffix(append(body, text[key]...), []byte("\n")), '\n')
		if i%512 == 511 || i == len(keys)-1 {
			rec := httptest.NewRecorder()
			f.ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				f.tb.Fatalf("reference ingest: status %d", rec.Code)
			}
			body = body[:0]
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.ref.Quiesce(ctx); err != nil {
		f.tb.Fatal(err)
	}
	var diverged []string
	for _, path := range clusterReadPaths {
		got, header := get(f.tb, f.rt.Handler(), path)
		if path == "/alerts" {
			if r.degraded = header.Get(DegradedHeader); r.degraded != "" {
				continue // it says it cannot vouch for itself: degraded, never silently different
			}
		}
		if want, _ := get(f.tb, f.ref.Handler(), path); !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			if diverged = append(diverged, path); len(diverged) == 1 {
				from := max(0, at-60)
				r.failf("%s diverges from one daemon fed the applied lines at byte %d:\nfleet:  %q\nsingle: %q", path, at, got[from:min(len(got), at+40)], want[from:min(len(want), at+40)])
			}
		}
	}
	if len(diverged) > 1 {
		r.failf("and so do %s", strings.Join(diverged[1:], ", "))
	}
	if r.degraded != "" && r.crashes == 0 {
		r.failf("nothing crashed, and merged /alerts is degraded: %s", r.degraded)
	}
	return r
}

// runSchedule builds the schedule's fleet, streams its lines through its
// faults and checks the outcome. The victim of crash and wedge faults gets
// a journaled state directory, a replica that restarts a plain one.
func runSchedule(tb testing.TB, sc schedule) (*fleet, *report) {
	tb.Helper()
	cfgs := make([]serve.Config, sc.replicas)
	for i := range cfgs {
		cfgs[i] = serve.DefaultConfig()
	}
	for _, ft := range sc.faults {
		switch {
		case ft.act == crash || ft.act == wedge:
			cfgs[ft.replica] = stateConfig(true)
		case ft.act == restart && cfgs[ft.replica].SnapshotDir == "":
			cfgs[ft.replica] = stateConfig(false)
		}
	}
	f := newFleet(tb, cfgs...)
	for _, ft := range sc.faults {
		m := f.members[ft.replica]
		at := []int{ft.at}
		if ft.act == crash && ft.queued() > 0 {
			at = []int{ft.at, ft.at + ft.queued()}
		}
		if slices.ContainsFunc(at, func(p int) bool { _, taken := m.faults[p]; return taken }) {
			continue // one fault a position: the first scheduled keeps it
		}
		m.faults[at[len(at)-1]] = ft
		if len(at) > 1 {
			m.faults[at[0]] = fault{stall, ft.replica, ft.at, 0}
		}
	}
	return f, f.check(f.stream(sc.log(tb), "fleet"))
}

// shrink drops every fault the failure does not need.
func shrink(tb testing.TB, sc schedule) schedule {
	for i := 0; i < len(sc.faults); {
		cut := sc
		cut.faults = slices.Delete(slices.Clone(sc.faults), i, i+1)
		if _, r := runSchedule(tb, cut); len(r.fails) > 0 {
			sc = cut
		} else {
			i++
		}
	}
	return sc
}

// mustPass fails the test with the schedule, shrunk, when it broke a
// check.
func mustPass(tb testing.TB, name string, sc schedule) (*fleet, *report) {
	tb.Helper()
	f, r := runSchedule(tb, sc)
	if len(r.fails) > 0 {
		small := shrink(tb, sc)
		if len(small.faults) < len(sc.faults) {
			_, r = runSchedule(tb, small)
		}
		tb.Fatalf("schedule %s: %v\nshrunk to: %v\nwhich fails:\n%s", name, sc, small, strings.Join(r.fails, "\n"))
	}
	return f, r
}

// fleetSeeds are the committed drawn schedules. TestFleetSchedules holds
// them to firing every action at least once, so the coverage cannot go
// vacuous; FuzzFleetSchedule starts from them.
var fleetSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// TestFleetSchedules runs the fixed rows — one fault each, named for the
// delivery hole it opens — then the drawn schedules.
func TestFleetSchedules(t *testing.T) {
	var fired [none]int // by the drawn schedules
	seedsRun := 0
	run := func(name string, sc schedule, more func(*testing.T, *report)) {
		t.Run(name, func(t *testing.T) {
			_, r := mustPass(t, name, sc)
			if more == nil {
				seedsRun++
				for act, n := range r.fired {
					fired[act] += n
				}
			}
			if r.books.accepted == 0 {
				t.Fatal("nothing was accepted; the schedule checked nothing")
			}
			if more != nil {
				more(t, r)
			}
		})
	}
	lossless := func(t *testing.T, r *report) {
		if r.books.shed != 0 || r.books.failed != 0 {
			t.Errorf("shed %d / failed %d lines of a stream every fault of which the router can absorb", r.books.shed, r.books.failed)
		}
	}
	// A lost 202 is retried; the replica must know the retry for what it is.
	run("lost-202", schedule{replicas: 2, faults: []fault{{dropAck, 0, 5, 0}}}, lossless)
	// A second router incarnation must number its lines after the first's.
	run("router-restart", schedule{replicas: 2, faults: []fault{{restartRouter, 0, 8, 0}}}, lossless)
	run("lost-request", schedule{replicas: 2, faults: []fault{{dropRequest, 1, 3, 0}}}, lossless)
	run("duplicated", schedule{replicas: 3, faults: []fault{{duplicate, 2, 7, 0}}}, lossless)
	run("swapped", schedule{replicas: 2, faults: []fault{{hold, 0, 4, 0}}}, lossless)
	// failed ⇒ maybe applied, never twice: the replica took the sub-batch,
	// the router booked it failed, and the wire's log is what tells the two
	// apart — the reference was fed those lines and the reads still match.
	run("hung", schedule{replicas: 2, faults: []fault{{hang, 1, 6, 0}}}, func(t *testing.T, r *report) {
		// (Its sibling sub-batch is booked failed too when the deadline beat
		// it to the wire: maybe applied is the contract, not applied.)
		if r.failedApplied == 0 || r.books.failed < uint64(r.failedApplied) || r.books.shed != 0 {
			t.Errorf("failed %d / shed %d lines, %d of the failed applied; the hung sub-batch should be booked failed and applied, nothing shed", r.books.failed, r.books.shed, r.failedApplied)
		}
	})
	run("wedged-journal", schedule{replicas: 2, faults: []fault{{wedge, 0, 6, 99}}}, lossless)
	run("corrupt-lines", schedule{replicas: 3, corrupt: 0.05, seed: 9, faults: []fault{{dropAck, 1, 2, 0}, {duplicate, 0, 9, 0}}}, lossless)
	for _, seed := range fleetSeeds {
		run(fmt.Sprint("seed-", seed), decodeSchedule(seedSchedule(seed)), nil)
	}
	for act := action(0); act < numActions && seedsRun == len(fleetSeeds); act++ { // a -run filter skips this
		if fired[act] == 0 {
			t.Errorf("no committed seed fired %s", actionNames[act])
		}
	}
}

// TestFleetCrashRows measures what a replica crash costs, at every named
// journal and seal boundary, with nothing queued and with three acked
// batches queued behind a stalled applier (the fourth slot is the request
// the crash fires on), under JournalFsync always: the
// restarted replica is a prefix of what it was sent (check compares every
// read against the lines that prefix holds), acked_lines_lost is at most
// QueueDepth batches, lines_applied_twice at most the one sub-batch whose
// ack the crash ate, and merged /alerts says it is degraded.
func TestFleetCrashRows(t *testing.T) {
	for n := 0; n < victimQueue*len(crashCuts); n += (victimQueue - 1) * len(crashCuts) {
		for cut := range crashCuts {
			ft := fault{crash, 0, 10, n + cut}
			t.Run(fmt.Sprintf("%s/queued-%d", crashCuts[cut].name, ft.queued()), func(t *testing.T) {
				_, r := mustPass(t, t.Name(), schedule{replicas: 2, faults: []fault{ft}})
				if r.crashes != 1 {
					t.Fatalf("%d crashes fired, want 1", r.crashes)
				}
				if r.degraded == "" {
					t.Error("a replica crashed and merged /alerts does not say it is degraded")
				}
				t.Logf("acked_lines_lost=%d lines_applied_twice=%d failed_lines=%d retries=%d", r.ackedLinesLost, r.linesTwice, r.books.failed, r.retries)
			})
		}
	}
}

// FuzzFleetSchedule runs whatever schedule the bytes decode to; go test
// -fuzz minimises the bytes of one that fails.
func FuzzFleetSchedule(f *testing.F) {
	for _, seed := range fleetSeeds {
		f.Add(seedSchedule(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeSchedule(data)
		if _, r := runSchedule(t, sc); len(r.fails) > 0 {
			t.Fatalf("schedule fails:\n%s\nschedule: %v", strings.Join(r.fails, "\n"), sc)
		}
	})
}
