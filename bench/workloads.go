//go:build linux

package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"titanre/internal/core"
	"titanre/internal/dataset"
	"titanre/internal/router"
	"titanre/internal/serve"
	"titanre/internal/sim"
)

// The five workloads. Each is one traffic mix against the real binaries;
// which layers do the work, and which do none, is the reason each exists
// (see workloadSpecs and bench/README.md).

// daemonArgs is the production shape every write-path daemon runs in:
// journaled (fsync policy "interval", the default), segments mmapped
// (the default), compaction every 250 ms so sealing happens inside the
// measured window rather than only at shutdown.
func daemonArgs(dir string) []string {
	return []string{"-warm-dir", dir, "-journal", "-compact-interval", "250ms"}
}

// run is one invocation's parameters.
type run struct {
	env     *env
	cpu     int // the CPU everything is pinned to
	sc      scale
	seed    int64
	seconds float64
	logf    func(format string, args ...any)
}

// metric is one named figure with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is what one workload (or the traced run) produced.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Problems  []string
	// Metrics are the contract metrics (end-to-end, or per-layer for the
	// traced run); Detail are the workload's own named figures printed
	// beside them.
	Metrics []metric
	Detail  []metric
}

// value returns a reported metric by name (NaN when absent).
func (r *result) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// count books n attempted operations of which bad failed.
func (r *result) count(n, bad int, first error) {
	r.Attempted += n
	r.Failed += bad
	if first != nil {
		r.problem("%v", first)
	}
}

func (r *result) detail(name string, v float64, unit string) {
	r.Detail = append(r.Detail, metric{name, v, unit})
}

// endToEnd fills the contract's end-to-end metrics. Each of throughput,
// cpuUs and p50Ms holds one value per repetition (rep, pass or second of
// the run); the run reports the fastest of each — see best.
func (r *result) endToEnd(setupS float64, throughput, cpuUs []float64, rssMB float64, p50Ms []float64) {
	r.Metrics = []metric{
		{"setup_s", setupS, "s"},
		{"throughput_per_s", best(throughput, true), "1/s"},
		{"cpu_us_per_unit", best(cpuUs, false), "us"},
		{"peak_rss_mb", rssMB, "MB"},
		{"latency_p50_ms", best(p50Ms, false), "ms"},
	}
	r.detail("repetitions", float64(len(throughput)), "count")
	for _, m := range []struct {
		name, unit string
		v          []float64
	}{{"throughput_per_s", "1/s", throughput}, {"cpu_us_per_unit", "us", cpuUs}, {"latency_p50_ms", "ms", p50Ms}} {
		sm := summarize(m.v)
		r.detail(m.name+".min", sm.Min, m.unit)
		r.detail(m.name+".median", sm.P50, m.unit)
		r.detail(m.name+".max", sm.Max, m.unit)
	}
}

// fixture is everything set-up generates for one workload.
type fixture struct {
	corpus     *corpus
	counts     map[string]int // events_by_code over the whole history
	checks     []*query       // order-independent documents over the whole history
	plan       []*query       // the fixed read sequence
	datasetDir string
	sealedDir  string
	reportWant []byte
	// live_mixed: batches to stream and the documents checked at quiesce.
	liveBatches int
	liveChecks  []*query
}

// setup generates the workload's inputs and references from the seed,
// sc.Setups times over, and reports the median wall time: the corpus,
// the sealed state, the reference folds and the `go build` of ./cmd are
// all inside the clock, so work moved into set-up shows.
func (r *run) setup(workload string) (*fixture, float64, error) {
	var fx *fixture
	var times []float64
	for i := 0; i < r.sc.Setups; i++ {
		t0 := time.Now()
		if err := r.env.build(); err != nil {
			return nil, 0, err
		}
		var err error
		if fx, err = r.fixture(workload); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fx, median(times), nil
}

func (r *run) fixture(workload string) (*fixture, error) {
	sc := r.sc
	if workload == "batch_report" {
		sc.Copies = 1 // the report reads one period; no history is built
	}
	c, err := newCorpus(r.seed, sc)
	if err != nil {
		return nil, err
	}
	return r.fixtureFor(workload, c)
}

// fixtureFor builds a workload's state and references over a corpus.
func (r *run) fixtureFor(workload string, c *corpus) (*fixture, error) {
	var err error
	fx := &fixture{corpus: c}
	rng := newRand(r.seed)
	switch workload {
	case "backfill", "fleet_backfill":
		fx.counts = codeCounts(c.events)
		fx.checks = checkPlan()
		if _, err := newOracle(c.events, fx.checks); err != nil {
			return nil, err
		}
	case "query_sealed":
		fx.sealedDir = r.env.dir("sealed")
		if err := c.writeSealed(fx.sealedDir, c.lines()); err != nil {
			return nil, err
		}
		fx.plan = queryPlan(rng, c.events, 4)
		if _, err := newOracle(c.events, fx.plan); err != nil {
			return nil, err
		}
	case "live_mixed":
		base := c.periodLines()
		fx.sealedDir = r.env.dir("sealed")
		if err := c.writeSealed(fx.sealedDir, base); err != nil {
			return nil, err
		}
		fx.liveBatches = min(int(r.seconds*float64(r.sc.LiveRate))/liveBatchLines, (c.lines()-base)/liveBatchLines)
		if fx.liveBatches < 1 {
			return nil, fmt.Errorf("live_mixed: nothing to stream at %d lines/s for %.1fs", r.sc.LiveRate, r.seconds)
		}
		fx.plan = queryPlan(rng, c.events[:base], 4)
		seen := c.events[:base+fx.liveBatches*liveBatchLines]
		fx.liveChecks = append(checkPlan(), alertsQuery(), warningsQuery())
		fx.liveChecks = append(fx.liveChecks, queryPlan(rng, seen, 1)...)
		if _, err := newOracle(seen, fx.liveChecks); err != nil {
			return nil, err
		}
	case "batch_report":
		fx.datasetDir = r.env.dir("dataset")
		if err := c.writeDataset(fx.datasetDir); err != nil {
			return nil, err
		}
		if fx.reportWant, err = referenceReport(fx.datasetDir); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return fx, nil
}

// referenceReport renders the report the slow, plain way: strict flat
// load, one worker, serial renderer — where titanreport's default path
// is the resilient loader and the concurrent renderer. (A study held in
// memory is not a byte reference: console.log round-trips events at
// second resolution, and the loaded study infers its window from them.)
func referenceReport(dir string) ([]byte, error) {
	cfg := sim.DefaultConfig()
	cfg.Start, cfg.End = time.Time{}, time.Time{}
	res, err := dataset.LoadWorkers(dir, cfg, 1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	core.FromResult(res).WriteReport(&buf)
	return buf.Bytes(), nil
}

// verifyDaemon checks the order-independent set on one titand: the
// applied count, /stats.events_by_code, and the check documents.
func verifyDaemon(res *result, when, url string, wantApplied int, counts map[string]int, checks []*query) (*serve.Stats, error) {
	var st serve.Stats
	if err := getJSON(pollClient, url+"/stats", &st); err != nil {
		return nil, err
	}
	res.Attempted++
	if int(st.EventsApplied) != wantApplied || !reflect.DeepEqual(st.EventsByCode, counts) {
		res.Failed++
		res.problem("%s: /stats reports %d applied, by code %v; want %d, %v", when, st.EventsApplied, st.EventsByCode, wantApplied, counts)
	}
	for _, q := range checks {
		_, err := runQuery(pollClient, url, q, true)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("%s: %v", when, err)
		}
	}
	return &st, nil
}

// bookSend books a streaming run: every batch is one attempted
// operation, and a batch that was neither admitted nor retried to
// admission is failed. 429s that were retried to a 202 lost nothing.
func bookSend(res *result, st *sendStats, batchLines int) {
	res.count(st.Batches, (st.Failed+batchLines-1)/batchLines, st.err)
}

// backfillMeasure is one backfill rep's raw figures.
type backfillMeasure struct {
	IngestS, ShutdownS        float64
	RestartS                  []float64
	CPUUsPerLine, RSSMB       float64
	DiskBytesPerEvent         float64
	SealedFraction            float64
	Compactions, JournalSyncs float64
	Retries429                float64
	GenCPUShare               float64
	AckMs                     []float64
}

// backfillRep loads the corpus into one fresh titand from two closed-loop
// senders, clocks first POST -> everything applied, checks the result,
// shuts down cleanly and (with restart) relaunches on the same directory
// and clocks launch -> full history visible, then checks again.
func (r *run) backfillRep(res *result, c *corpus, counts map[string]int, checks []*query, restarts int) (*backfillMeasure, error) {
	dir := r.env.dir("backfill")
	defer os.RemoveAll(dir)
	d, err := r.env.startDaemon("titand", daemonArgs(dir)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	m := &backfillMeasure{}

	gen0 := selfCPU()
	p := startPoller([]string{d.url}, 10*time.Millisecond)
	send := closedLoop(c, backfillBatchLines, 2, d.url+"/ingest", "")
	p.setInterval(time.Millisecond)
	appliedAt, err := p.waitApplied(uint64(c.lines()), 60*time.Second)
	p.stop()
	if err != nil {
		return nil, err
	}
	// CPU is read the moment the last line is applied: launch -> applied
	// is the ingest work. The checks that follow and the shutdown's
	// dataset snapshot are not, and would only add their own noise.
	cpu, err := d.cpuNow()
	if err != nil {
		return nil, err
	}
	m.IngestS = appliedAt.Sub(send.First).Seconds()
	m.CPUUsPerLine = float64(cpu.Microseconds()) / float64(c.lines())
	m.GenCPUShare = (selfCPU() - gen0).Seconds() / time.Since(send.First).Seconds()
	m.AckMs = send.AckMs
	m.Retries429 = float64(send.Retries429)
	bookSend(res, send, backfillBatchLines)

	st, err := verifyDaemon(res, "backfill before shutdown", d.url, c.lines(), counts, checks)
	if err != nil {
		return nil, err
	}
	m.SealedFraction = float64(st.SealedEvents) / float64(c.lines())
	m.Compactions = float64(st.Compactions)
	if st.Journal != nil {
		m.JournalSyncs = float64(st.Journal.Syncs)
	}
	if st.FastFallbacks != 0 || st.Malformed != 0 || st.Chatter != 0 {
		res.problem("backfill: clean corpus left the fast path: %d fallbacks, %d malformed, %d chatter", st.FastFallbacks, st.Malformed, st.Chatter)
	}

	drain, err := d.stop()
	if err != nil {
		return nil, err
	}
	m.ShutdownS = drain.Seconds()
	_, m.RSSMB = d.usage()

	// What a clean shutdown leaves on disk for the history: segments and
	// the sealed floor, plus whatever journal the floor has not retired.
	// (The dataset snapshot beside them is a convenience copy, not state.)
	segBytes, err := dirBytes(filepath.Join(dir, dataset.SegmentsDir))
	if err != nil {
		return nil, err
	}
	walBytes, err := dirBytes(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	m.DiskBytesPerEvent = float64(segBytes+walBytes) / float64(c.lines())

	for i := 0; i < restarts; i++ {
		d2, err := r.env.startDaemon("titand", daemonArgs(dir)...)
		if err != nil {
			return nil, err
		}
		defer d2.kill()
		// titand warm-starts before it listens, so a healthy answer
		// already means the history is loaded; verifyDaemon proves it
		// (documents on the first relaunch, counts on the rest).
		m.RestartS = append(m.RestartS, time.Since(d2.started).Seconds())
		again := checks
		if i > 0 {
			again = nil
		}
		if _, err := verifyDaemon(res, "backfill after restart", d2.url, c.lines(), counts, again); err != nil {
			return nil, err
		}
		// Verified, and nothing new to persist: no need to drain.
		d2.kill()
		if _, rss2 := d2.usage(); rss2 > m.RSSMB {
			m.RSSMB = rss2
		}
	}
	return m, nil
}

func col[T any](ms []T, f func(T) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}

func (r *run) backfill() (*result, error) {
	res := &result{Workload: "backfill"}
	fx, setupS, err := r.setup(res.Workload)
	if err != nil {
		return nil, err
	}
	c := fx.corpus
	var reps []*backfillMeasure
	for t0 := time.Now(); len(reps) == 0 || time.Since(t0).Seconds() < r.seconds; {
		m, err := r.backfillRep(res, c, fx.counts, fx.checks, 3)
		if err != nil {
			return nil, err
		}
		reps = append(reps, m)
		r.logf("backfill rep %d: %.0f lines/s, %.2f cpu-us/line, restarts %.3fs, shutdown %.3fs, %d 429s",
			len(reps), float64(c.lines())/m.IngestS, m.CPUUsPerLine, m.RestartS, m.ShutdownS, int(m.Retries429))
	}
	mid := func(f func(*backfillMeasure) float64) float64 { return median(col(reps, f)) }
	var acks, restarts []float64
	for _, m := range reps {
		acks = append(acks, m.AckMs...)
		restarts = append(restarts, m.RestartS...)
	}
	ack := summarize(acks)
	// Memory is the median repetition's peak: how high one daemon's heap
	// gets depends on where its collections and compactions happen to fall,
	// and the largest of a run's repetitions is the noisiest of them.
	rss := mid(func(m *backfillMeasure) float64 { return m.RSSMB })
	res.endToEnd(setupS,
		col(reps, func(m *backfillMeasure) float64 { return float64(c.lines()) / m.IngestS }),
		col(reps, func(m *backfillMeasure) float64 { return m.CPUUsPerLine }),
		rss,
		col(reps, func(m *backfillMeasure) float64 { return 1000 * median(m.RestartS) }))
	res.detail("corpus_lines", float64(c.lines()), "count")
	res.detail("ingest_lines_per_s", res.value("throughput_per_s"), "1/s")
	res.detail("ingest_cpu_us_per_line", res.value("cpu_us_per_unit"), "us")
	res.detail("restart_s", res.value("latency_p50_ms")/1000, "s")
	res.detail("restart_s.max", summarize(restarts).Max, "s")
	res.detail("restart_samples", float64(len(restarts)), "count")
	res.detail("peak_rss_mb", rss, "MB")
	res.detail("disk_bytes_per_event", mid(func(m *backfillMeasure) float64 { return m.DiskBytesPerEvent }), "B")
	res.detail("serve.shutdown_s", mid(func(m *backfillMeasure) float64 { return m.ShutdownS }), "s")
	res.detail("serve.ack_p50_ms", ack.P50, "ms")
	res.detail("serve.ack_p99_ms", ack.P99, "ms")
	res.detail("serve.batches_429", mid(func(m *backfillMeasure) float64 { return m.Retries429 }), "count")
	res.detail("serve.compactions", mid(func(m *backfillMeasure) float64 { return m.Compactions }), "count")
	res.detail("serve.journal_syncs", mid(func(m *backfillMeasure) float64 { return m.JournalSyncs }), "count")
	res.detail("serve.sealed_fraction_at_quiesce", mid(func(m *backfillMeasure) float64 { return m.SealedFraction }), "ratio")
	res.detail("gen.cpu_share", mid(func(m *backfillMeasure) float64 { return m.GenCPUShare }), "ratio")
	return res, nil
}

// classSummary prints the per-class and per-shape latency figures.
func classSummary(res *result, qs *queryStats) {
	for _, class := range []string{classScan, classPoint} {
		s := summarize(qs.ByClass[class])
		res.detail(class+"_query_p50_ms", s.P50, "ms")
		res.detail(class+"_query_p95_ms", s.P95, "ms")
		res.detail(class+"_query_samples", float64(s.N), "count")
	}
	for _, shape := range allShapes {
		res.detail("serve.q."+shape+"_p50_ms", summarize(qs.ByShape[shape]).P50, "ms")
	}
}

func (r *run) querySealed() (*result, error) {
	res := &result{Workload: "query_sealed"}
	fx, setupS, err := r.setup(res.Workload)
	if err != nil {
		return nil, err
	}
	d, err := r.env.startDaemon("titand", "-warm-dir", fx.sealedDir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	warmS := time.Since(d.started).Seconds()
	clients := []*http.Client{newClient(), newClient()}

	// One discarded pass lets the page cache and the connections warm.
	warm := runPass(clients, d.url, fx.plan, true)
	res.count(warm.Attempted, warm.Failed, warm.FirstErr)

	// A block of sc.BlockPasses replays of the sequence is one repetition
	// with its own rate, CPU per query and median latency. A single pass
	// holds four requests of each scan shape, too few for a median: two
	// readers share one core, so a scan takes 30 ms alone and 60 ms beside
	// the other reader's scan, and the median of four flips between the
	// two from pass to pass.
	qs := newQueryStats()
	var qps, cpuUs, p50s []float64
	for t0 := time.Now(); len(qps) == 0 || time.Since(t0).Seconds() < r.seconds; {
		cpu0, err := d.cpuNow()
		if err != nil {
			return nil, err
		}
		block := newQueryStats()
		p0 := time.Now()
		for i := 0; i < r.sc.BlockPasses; i++ {
			block.merge(runPass(clients, d.url, fx.plan, true))
		}
		wall := time.Since(p0).Seconds()
		cpu1, err := d.cpuNow()
		if err != nil {
			return nil, err
		}
		// The latency is that of the heaviest scan, /top by node, as in
		// fleet_backfill. Class medians are printed, not bounded: the scan
		// class's lands between two shapes whose order flips with the seed.
		if n := float64(len(block.All)); n > 0 {
			qps, cpuUs = append(qps, n/wall), append(cpuUs, float64((cpu1-cpu0).Microseconds())/n)
			p50s = append(p50s, median(block.ByShape["top_node"]))
			r.logf("query_sealed block %d: %.1f queries/s, %.0f cpu-us/query, top_node p50 %.2f ms",
				len(qps), qps[len(qps)-1], cpuUs[len(cpuUs)-1], p50s[len(p50s)-1])
		}
		qs.merge(block)
	}
	res.count(qs.Attempted, qs.Failed, qs.FirstErr)
	var st serve.Stats
	if err := getJSON(pollClient, d.url+"/stats", &st); err != nil {
		return nil, err
	}
	if int(st.EventsApplied) != fx.corpus.lines() || st.LinesAccepted != 0 {
		res.problem("query_sealed: daemon reports %d applied, %d lines accepted; want %d, 0", st.EventsApplied, st.LinesAccepted, fx.corpus.lines())
	}
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	_, rss := d.usage()

	done := float64(len(qs.All))
	res.endToEnd(setupS, qps, cpuUs, rss, p50s)
	res.detail("history_events", float64(fx.corpus.lines()), "count")
	res.detail("query_qps", res.value("throughput_per_s"), "1/s")
	res.detail("query_samples", done, "count")
	res.detail("peak_rss_mb", rss, "MB")
	res.detail("warm_start_s", warmS, "s")
	classSummary(res, qs)
	return res, nil
}

// liveMeasure is one live_mixed run's raw figures.
type liveMeasure struct {
	StreamS, CPUS, RSSMB float64
	PassQPS, PassCPUUs   []float64 // per completed pass of the reader
	Streamed             int
	VisibleMs            []float64
	Send                 *sendStats
	Queries              *queryStats
	Stats                *serve.Stats
	GenCPUShare          float64
}

// liveRep streams fx.liveBatches batches in order at the fixed open-loop
// rate into a titand warm-started on the one-period sealed history,
// beside one closed-loop reader, then checks the documents at quiesce.
func (r *run) liveRep(res *result, fx *fixture) (*liveMeasure, error) {
	c := fx.corpus
	base := c.periodLines()
	d, err := r.env.startDaemon("titand", daemonArgs(fx.sealedDir)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()

	// The reader runs the query sequence for as long as the writer
	// streams. State moves under it, so responses are checked for status
	// only; documents are compared at quiesce.
	m := &liveMeasure{Streamed: fx.liveBatches * liveBatchLines}
	var stop atomic.Bool
	readerDone := make(chan *queryStats)
	go func() {
		client := newClient()
		defer client.CloseIdleConnections()
		qs := newQueryStats()
		for !stop.Load() {
			cpu0, _ := d.cpuNow() // a failed read only costs this pass its CPU figure
			p0, n := time.Now(), 0
			for _, q := range fx.plan {
				if stop.Load() {
					break
				}
				dur, err := runQuery(client, d.url, q, false)
				qs.add(q, dur, err)
				n++
			}
			if cpu1, err := d.cpuNow(); err == nil && cpu0 > 0 && n == len(fx.plan) {
				m.PassQPS = append(m.PassQPS, float64(n)/time.Since(p0).Seconds())
				m.PassCPUUs = append(m.PassCPUUs, float64((cpu1-cpu0).Microseconds())/float64(n))
			}
		}
		readerDone <- qs // publishes the per-pass figures with it
	}()

	gen0 := selfCPU()
	p := startPoller([]string{d.url}, 2*time.Millisecond)
	m.Send = openLoop(c, base, liveBatchLines, fx.liveBatches, float64(r.sc.LiveRate), d.url+"/ingest")
	m.StreamS = time.Since(m.Send.First).Seconds()
	stop.Store(true)
	m.Queries = <-readerDone
	m.GenCPUShare = (selfCPU() - gen0).Seconds() / m.StreamS
	_, err = p.waitApplied(uint64(base+m.Streamed), 60*time.Second)
	samples := p.stop()
	if err != nil {
		return nil, err
	}
	bookSend(res, m.Send, liveBatchLines)
	res.count(m.Queries.Attempted, m.Queries.Failed, m.Queries.FirstErr)

	m.VisibleMs = visibleMs(samples, uint64(base), liveBatchLines, m.Send.Due)
	if len(m.VisibleMs) != fx.liveBatches {
		res.problem("live_mixed: only %d of %d batches became visible", len(m.VisibleMs), fx.liveBatches)
	}
	seen := base + m.Streamed
	if m.Stats, err = verifyDaemon(res, "live_mixed at quiesce", d.url, seen, codeCounts(c.events[:seen]), fx.liveChecks); err != nil {
		return nil, err
	}
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	cpu, rss := d.usage()
	m.CPUS, m.RSSMB = cpu.Seconds(), rss
	return m, nil
}

func (r *run) liveMixed() (*result, error) {
	res := &result{Workload: "live_mixed"}
	fx, setupS, err := r.setup(res.Workload)
	if err != nil {
		return nil, err
	}
	m, err := r.liveRep(res, fx)
	if err != nil {
		return nil, err
	}
	// The stream is cut into whole seconds; each is a repetition with its
	// own median visibility latency over the batches due in it. The
	// reader's repetitions are its completed passes of the plan.
	seconds := int(m.StreamS)
	if seconds < 1 || len(m.VisibleMs) != fx.liveBatches {
		seconds = 1 // quick scale, or a failed run already marked incorrect
	}
	bySecond := make([][]float64, seconds)
	for i, due := range m.Send.Due {
		if w := int(due.Sub(m.Send.First) / time.Second); w < seconds && i < len(m.VisibleMs) {
			bySecond[w] = append(bySecond[w], m.VisibleMs[i])
		}
	}
	var p50s []float64
	for _, w := range bySecond {
		if len(w) > 0 {
			p50s = append(p50s, median(w))
		}
	}
	done := float64(len(m.Queries.All))
	if len(m.PassQPS) == 0 { // quick scale: the stream ended inside the first pass
		m.PassQPS, m.PassCPUUs = []float64{done / m.StreamS}, []float64{m.CPUS * 1e6 / done}
	}
	vis, late := summarize(m.VisibleMs), summarize(m.Send.LateMs)
	res.endToEnd(setupS, m.PassQPS, m.PassCPUUs, m.RSSMB, p50s)
	res.detail("offered_lines_per_s", float64(m.Streamed)/m.StreamS, "1/s")
	res.detail("batches", float64(fx.liveBatches), "count")
	res.detail("visible_p50_ms", vis.P50, "ms")
	res.detail("visible_p95_ms", vis.P95, "ms")
	res.detail("visible_p99_ms", vis.P99, "ms")
	res.detail("query_qps", done/m.StreamS, "1/s")
	res.detail("peak_rss_mb", m.RSSMB, "MB")
	res.detail("serve.ack_p50_ms", summarize(m.Send.AckMs).P50, "ms")
	res.detail("serve.batches_429", float64(m.Send.Retries429), "count")
	res.detail("serve.compactions", float64(m.Stats.Compactions), "count")
	res.detail("serve.sealed_fraction_at_quiesce", float64(m.Stats.SealedEvents)/float64(fx.corpus.periodLines()+m.Streamed), "ratio")
	res.detail("gen.late_p99_ms", late.P99, "ms")
	res.detail("gen.cpu_share", m.GenCPUShare, "ratio")
	classSummary(res, m.Queries)
	return res, nil
}

// fleetMeasure is one fleet_backfill rep's raw figures.
type fleetMeasure struct {
	IngestS                     float64
	CPUUsPerLine, RSSMB         float64
	RouterCPUShare              float64
	ReplicaCPUUsPerLine         float64
	SubBatchesPerBatch, Retries float64
	ShardSkew                   float64
	ReadMs                      map[string][]float64
}

// mergedReads is the fixed read sequence a fleet rep issues through the
// router once the corpus is applied.
//
// Five shapes at equal weight keep the median inside the third-heaviest
// shape's distribution instead of on the boundary between two.
var mergedReads = []string{"query", "query_scan", "rollup", "top", "alerts"}

// fleetRep drives the backfill load through one titanrouter into three
// titand replicas, clocks first POST -> Σ replica applied == corpus, then
// issues `reads` rounds of merged reads through the router.
func (r *run) fleetRep(res *result, c *corpus, checks []*query, reads int) (*fleetMeasure, error) {
	const replicas = 3
	var kids []*child
	defer func() {
		for _, k := range kids {
			k.kill()
		}
	}()
	var urls []string
	for i := 0; i < replicas; i++ {
		dir := r.env.dir("replica")
		defer os.RemoveAll(dir)
		d, err := r.env.startDaemon("titand", daemonArgs(dir)...)
		if err != nil {
			return nil, err
		}
		kids = append(kids, d)
		urls = append(urls, d.url)
	}
	rt, err := r.env.startDaemon("titanrouter", "-replicas", strings.Join(urls, ","))
	if err != nil {
		return nil, err
	}
	kids = append(kids, rt)
	m := &fleetMeasure{ReadMs: map[string][]float64{}}

	p := startPoller(urls, 10*time.Millisecond)
	send := closedLoop(c, backfillBatchLines, 2, rt.url+"/ingest", "bench")
	p.setInterval(time.Millisecond)
	appliedAt, err := p.waitApplied(uint64(c.lines()), 120*time.Second)
	p.stop()
	if err != nil {
		return nil, err
	}
	// As in backfill, CPU is read when the last line is applied: the
	// merged reads and the shutdown snapshots are not ingest work.
	var cpuSum, routerCPU time.Duration
	for _, k := range kids {
		cpu, err := k.cpuNow()
		if err != nil {
			return nil, err
		}
		cpuSum += cpu
		if k == rt {
			routerCPU = cpu
		}
	}
	m.IngestS = appliedAt.Sub(send.First).Seconds()
	m.CPUUsPerLine = float64(cpuSum.Microseconds()) / float64(c.lines())
	m.RouterCPUShare = float64(routerCPU) / float64(cpuSum)
	m.ReplicaCPUUsPerLine = float64((cpuSum - routerCPU).Microseconds()) / float64(c.lines())
	bookSend(res, send, backfillBatchLines)

	// The router's books must close exactly, with nothing failed.
	var rs router.Stats
	if err := getJSON(pollClient, rt.url+"/stats", &rs); err != nil {
		return nil, err
	}
	src := rs.Sources["bench"]
	res.Attempted++
	if rs.LinesOffered != rs.LinesDelivered+rs.LinesShed+rs.LinesFailed || rs.LinesFailed != 0 ||
		rs.LinesDelivered != uint64(c.lines()) || src.OfferedLines != src.AcceptedLines+src.ShedLines+src.FailedLines ||
		src.AcceptedLines != uint64(c.lines()) {
		res.Failed++
		res.problem("fleet: router books do not close: offered %d delivered %d shed %d failed %d; source %+v",
			rs.LinesOffered, rs.LinesDelivered, rs.LinesShed, rs.LinesFailed, src)
	}
	m.SubBatchesPerBatch = float64(rs.SubBatches) / float64(rs.BatchesAccepted)
	m.Retries = float64(rs.DeliverRetries)

	// Per-replica order-independent check and shard balance.
	var maxShare, byCode = 0.0, map[string]int{}
	for _, u := range urls {
		var st serve.Stats
		if err := getJSON(pollClient, u+"/stats", &st); err != nil {
			return nil, err
		}
		maxShare = math.Max(maxShare, float64(st.EventsApplied))
		for code, n := range st.EventsByCode {
			byCode[code] += n
		}
	}
	m.ShardSkew = maxShare / (float64(c.lines()) / replicas)
	res.Attempted++
	if want := codeCounts(c.events); !reflect.DeepEqual(byCode, want) {
		res.Failed++
		res.problem("fleet: Σ replica events_by_code %v, want %v", byCode, want)
	}

	// Merged reads. Two senders leave arrival order open, so the merged
	// alert stream is only required to be served and complete, not
	// byte-equal.
	byShape := map[string]*query{}
	for _, q := range checks {
		byShape[q.Shape] = q
	}
	docs := map[string]*query{"query": byShape["plan_selective"], "query_scan": byShape["plan_cabinet"],
		"rollup": byShape["rollup_code"], "top": byShape["top_node"]}
	for i := 0; i < reads; i++ {
		for _, name := range mergedReads {
			res.Attempted++
			var dur time.Duration
			var err error
			if q := docs[name]; q != nil {
				dur, err = runQuery(pollClient, rt.url, q, true)
			} else {
				t0 := time.Now()
				status, hdr, _, gerr := get(pollClient, rt.url+"/alerts")
				dur, err = time.Since(t0), gerr
				if err == nil && (status != http.StatusOK || hdr.Get(router.DegradedHeader) != "") {
					err = fmt.Errorf("/alerts: status %d, degraded %q", status, hdr.Get(router.DegradedHeader))
				}
			}
			if err != nil {
				res.Failed++
				res.problem("fleet merged read: %v", err)
				continue
			}
			m.ReadMs[name] = append(m.ReadMs[name], ms(dur))
		}
	}

	// Everything is verified and the directories are about to go: kill
	// rather than drain, and take peak memory from the reaped children.
	for _, k := range kids {
		k.kill()
		_, rss := k.usage()
		m.RSSMB += rss
	}
	return m, nil
}

func (r *run) fleetBackfill() (*result, error) {
	res := &result{Workload: "fleet_backfill"}
	fx, setupS, err := r.setup(res.Workload)
	if err != nil {
		return nil, err
	}
	c := fx.corpus
	var reps []*fleetMeasure
	for t0 := time.Now(); len(reps) == 0 || time.Since(t0).Seconds() < r.seconds; {
		m, err := r.fleetRep(res, c, fx.checks, 5)
		if err != nil {
			return nil, err
		}
		reps = append(reps, m)
		r.logf("fleet_backfill rep %d: %.0f lines/s, %.2f cpu-us/line (router share %.2f), skew %.3f",
			len(reps), float64(c.lines())/m.IngestS, m.CPUUsPerLine, m.RouterCPUShare, m.ShardSkew)
	}
	mid := func(f func(*fleetMeasure) float64) float64 { return median(col(reps, f)) }
	rss := mid(func(m *fleetMeasure) float64 { return m.RSSMB })
	var reads []float64
	for _, name := range mergedReads {
		var shape []float64
		for _, m := range reps {
			shape = append(shape, m.ReadMs[name]...)
		}
		res.detail("router.merged."+name+"_p50_ms", summarize(shape).P50, "ms")
		reads = append(reads, shape...)
	}
	res.endToEnd(setupS,
		col(reps, func(m *fleetMeasure) float64 { return float64(c.lines()) / m.IngestS }),
		col(reps, func(m *fleetMeasure) float64 { return m.CPUUsPerLine }),
		rss,
		// The heaviest merged read: /top ships every replica's whole
		// accumulator, so the partial merge is most of its cost. The median
		// over all five shapes lands between two of similar cost and spread
		// 30% over ten runs.
		col(reps, func(m *fleetMeasure) float64 { return median(m.ReadMs["top"]) }))
	res.detail("corpus_lines", float64(c.lines()), "count")
	res.detail("ingest_lines_per_s", res.value("throughput_per_s"), "1/s")
	res.detail("ingest_cpu_us_per_line", res.value("cpu_us_per_unit"), "us")
	res.detail("peak_rss_mb", rss, "MB")
	res.detail("merged_top_p50_ms", res.value("latency_p50_ms"), "ms")
	res.detail("merged_query_p50_ms", summarize(reads).P50, "ms")
	res.detail("merged_query_p95_ms", summarize(reads).P95, "ms")
	res.detail("merged_query_samples", float64(len(reads)), "count")
	res.detail("router.cpu_share", mid(func(m *fleetMeasure) float64 { return m.RouterCPUShare }), "ratio")
	res.detail("router.replica_cpu_us_per_line", mid(func(m *fleetMeasure) float64 { return m.ReplicaCPUUsPerLine }), "us")
	res.detail("router.sub_batches_per_batch", mid(func(m *fleetMeasure) float64 { return m.SubBatchesPerBatch }), "ratio")
	res.detail("router.deliver_retries", mid(func(m *fleetMeasure) float64 { return m.Retries }), "count")
	res.detail("router.shard_skew", mid(func(m *fleetMeasure) float64 { return m.ShardSkew }), "ratio")
	return res, nil
}

func (r *run) batchReport() (*result, error) {
	res := &result{Workload: "batch_report"}
	fx, setupS, err := r.setup(res.Workload)
	if err != nil {
		return nil, err
	}
	events := float64(fx.corpus.periodLines())
	var wallMs, cpuUs, rssMB []float64
	for t0 := time.Now(); len(wallMs) == 0 || time.Since(t0).Seconds() < r.seconds; {
		// Default flags: resilient load re-parsing console.log through the
		// SEC rules, the study, every figure and the observation checks.
		p, err := r.env.start("titanreport", "-data", fx.datasetDir)
		if err != nil {
			return nil, err
		}
		<-p.done
		wall := time.Since(p.started)
		res.Attempted++
		if p.waitErr != nil {
			return nil, fmt.Errorf("bench: titanreport: %v\n%s", p.waitErr, p.stderr.String())
		}
		if !bytes.Equal(p.stdout.Bytes(), fx.reportWant) {
			res.Failed++
			res.problem("batch_report: %d report bytes differ from the %d-byte reference", p.stdout.Len(), len(fx.reportWant))
		}
		cpu, rss := p.usage()
		wallMs = append(wallMs, ms(wall))
		cpuUs = append(cpuUs, float64(cpu.Microseconds())/events)
		rssMB = append(rssMB, rss)
		r.logf("batch_report rep %d: %.1f ms wall, %.2f cpu-us/event", len(wallMs), wallMs[len(wallMs)-1], cpuUs[len(cpuUs)-1])
	}
	wall := summarize(wallMs)
	res.endToEnd(setupS, col(wallMs, func(ms float64) float64 { return events / (ms / 1000) }), cpuUs, median(rssMB), wallMs)
	res.detail("dataset_events", events, "count")
	res.detail("report_s", res.value("latency_p50_ms")/1000, "s")
	res.detail("report_s.max", wall.Max/1000, "s")
	res.detail("peak_rss_mb", median(rssMB), "MB")
	return res, nil
}

// workloadSpec is one workload: why it exists, and whether
// BENCHMARK.json declares it.
type workloadSpec struct {
	Name string
	Why  string
	// Declared workloads are the ones the driver runs and holds to the
	// bounds. The cap on all of the driver's runs together (4 + 22 per
	// workload inside 3,420 s) buys two workloads a 45 s run each or five
	// a 14 s run, and at 14 s a run is shorter than the host's slow spells:
	// ten runs of the same code then spread 30-45% on every timing. The
	// write path and the read path are declared, each the other's
	// no-change control; the other three run in the suite, in -quick and
	// under `-workload`, checked the same way and printed, not bounded.
	Declared bool
	run      func(*run) (*result, error)
}

// workloadSpecs names the workloads in the order the suite runs them;
// BENCHMARK.json carries the declared ones with the same lines.
var workloadSpecs = []workloadSpec{
	{"backfill", "2 closed-loop senders load the history into one journaled titand, then restart it: decode, apply, journal and seal do all the work, the query layers none", true, (*run).backfill},
	{"query_sealed", "2 closed-loop readers replay a fixed scan+point query sequence on a warm-started titand with no ingest: store kernels, bitmaps, mmap and titanql only", true, (*run).querySealed},
	{"live_mixed", "one open-loop writer at a fixed rate beside one closed-loop reader: the same serve/store layers used both ways at once, so lock and GC interference shows", false, (*run).liveMixed},
	{"fleet_backfill", "the backfill load through titanrouter into 3 titand replicas, then merged reads: split, seq-mask, fan-out and partial merge run only here", false, (*run).fleetBackfill},
	{"batch_report", "titanreport over a one-period dataset: console parse, ingest, core and report only; the no-change control for all daemon work", false, (*run).batchReport},
}

// declaredWorkloads are the workloads BENCHMARK.json names.
func declaredWorkloads() []workloadSpec {
	var out []workloadSpec
	for _, w := range workloadSpecs {
		if w.Declared {
			out = append(out, w)
		}
	}
	return out
}
