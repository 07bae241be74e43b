//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/serve"
)

// The load generator. It is the measuring stick, so it lives here and
// shares no code with serve.StreamLog or cmd/titanload: closed-loop and
// open-loop senders, due-time stamping, 429 retry and the /stats poller
// are all the benchmark's own. One process, at most two sender
// connections (this box has two cores).

// retry429 is how long a sender waits before re-offering a shed batch.
// It is far below the time a full admission queue takes to drain, so a
// backpressured daemon never runs dry while the sender sleeps.
const retry429 = 20 * time.Millisecond

// newClient returns a client that owns one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// sendStats is the generator's own book of one streaming run.
type sendStats struct {
	Lines      int // lines offered (each batch counted once)
	Batches    int
	Retries429 int       // 429 answers, each followed by a retry
	Failed     int       // lines in batches that got neither 202 nor 429
	AckMs      []float64 // POST -> 202, successful attempts only
	LateMs     []float64 // open loop: send start minus due time
	First      time.Time // first POST started
	Due        []time.Time
	err        error
}

// post offers one batch until it is admitted. It returns the number of
// 429s absorbed and the latency of the attempt that got the 202.
func post(client *http.Client, url, source string, body []byte) (retries int, ack time.Duration, err error) {
	for {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return retries, 0, err
		}
		req.Header.Set("Content-Type", "text/plain")
		if source != "" {
			req.Header.Set(serve.SourceHeader, source)
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return retries, 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return retries, time.Since(t0), nil
		case http.StatusTooManyRequests:
			retries++
			time.Sleep(retry429)
		default:
			return retries, 0, fmt.Errorf("POST %s: status %s", url, resp.Status)
		}
	}
}

// closedLoop streams the whole corpus losslessly from `senders`
// connections, each sending its next batch only after the previous one
// was admitted. Batches are handed out in corpus order, so with two
// senders arrival order is only approximately corpus order.
func closedLoop(c *corpus, batchLines, senders int, url, source string) *sendStats {
	total := (c.lines() + batchLines - 1) / batchLines
	st := &sendStats{Lines: c.lines(), Batches: total}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	st.First = time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var acks []float64
			retries, failed := 0, 0
			var firstErr error
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					break
				}
				lo, hi := i*batchLines, min((i+1)*batchLines, c.lines())
				r, ack, err := post(client, url, source, c.slice(lo, hi))
				retries += r
				if err != nil {
					failed += hi - lo
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				acks = append(acks, ms(ack))
			}
			mu.Lock()
			st.AckMs = append(st.AckMs, acks...)
			st.Retries429 += retries
			st.Failed += failed
			if st.err == nil {
				st.err = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return st
}

// openLoop sends lines [from, from+batches*batchLines) in order on one
// connection at a fixed rate, whatever the daemon does: batch i is due at
// start + i*batchLines/rate, and is sent as soon after that as the
// previous POST allows. Each batch is timed from its due time, so a stall
// is charged to every batch it delays.
func openLoop(c *corpus, from, batchLines, batches int, rate float64, url string) *sendStats {
	st := &sendStats{Lines: batches * batchLines, Batches: batches, Due: make([]time.Time, batches)}
	client := newClient()
	defer client.CloseIdleConnections()
	interval := time.Duration(float64(batchLines) / rate * float64(time.Second))
	st.First = time.Now()
	for i := 0; i < batches; i++ {
		due := st.First.Add(time.Duration(i) * interval)
		st.Due[i] = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.LateMs = append(st.LateMs, ms(time.Since(due)))
		lo := from + i*batchLines
		r, ack, err := post(client, url, "", c.slice(lo, lo+batchLines))
		st.Retries429 += r
		if err != nil {
			st.Failed += batchLines
			if st.err == nil {
				st.err = err
			}
			continue
		}
		st.AckMs = append(st.AckMs, ms(ack))
	}
	return st
}

// appliedSample is one /stats observation.
type appliedSample struct {
	at      time.Time
	applied uint64
}

// poller samples Σ events_applied over a set of daemons on a fixed
// cadence; applied-at times are read back from its samples.
type poller struct {
	urls     []string
	interval atomic.Int64 // nanoseconds
	cancel   context.CancelFunc
	done     chan struct{}

	mu      sync.Mutex
	samples []appliedSample
}

func startPoller(urls []string, interval time.Duration) *poller {
	ctx, cancel := context.WithCancel(context.Background())
	p := &poller{urls: urls, cancel: cancel, done: make(chan struct{})}
	p.interval.Store(int64(interval))
	go func() {
		defer close(p.done)
		client := &http.Client{Timeout: 5 * time.Second}
		defer client.CloseIdleConnections()
		for ctx.Err() == nil {
			var total uint64
			ok := true
			for _, u := range p.urls {
				var st struct {
					EventsApplied uint64 `json:"events_applied"`
				}
				if err := getJSON(client, u+"/stats", &st); err != nil {
					ok = false
					break
				}
				total += st.EventsApplied
			}
			// A failed poll (the daemon is starting or gone) is just a
			// missing sample; waitApplied times out if they all fail.
			if ok {
				p.mu.Lock()
				p.samples = append(p.samples, appliedSample{time.Now(), total})
				p.mu.Unlock()
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Duration(p.interval.Load())):
			}
		}
	}()
	return p
}

func (p *poller) setInterval(d time.Duration) { p.interval.Store(int64(d)) }

func (p *poller) stop() []appliedSample {
	p.cancel()
	<-p.done
	return p.samples
}

// waitApplied blocks until a sample shows at least n events applied and
// returns when that sample was taken.
func (p *poller) waitApplied(n uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	seen := 0
	for {
		p.mu.Lock()
		for ; seen < len(p.samples); seen++ {
			if s := p.samples[seen]; s.applied >= n {
				p.mu.Unlock()
				return s.at, nil
			}
		}
		var last uint64
		if seen > 0 {
			last = p.samples[seen-1].applied
		}
		p.mu.Unlock()
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("bench: %d of %d events applied after %v", last, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// visibleMs turns poller samples into per-batch visibility latencies:
// batch i is visible at the first sample whose applied count covers its
// last line, timed from the batch's due time.
func visibleMs(samples []appliedSample, base uint64, batchLines int, due []time.Time) []float64 {
	out := make([]float64, 0, len(due))
	for i, d := range due {
		target := base + uint64((i+1)*batchLines)
		j := sort.Search(len(samples), func(k int) bool { return samples[k].applied >= target })
		if j == len(samples) {
			continue // never became visible; the caller counts the shortfall
		}
		out = append(out, ms(samples[j].at.Sub(d)))
	}
	return out
}

// queryStats is the read side's book.
type queryStats struct {
	Attempted, Failed int
	ByShape           map[string][]float64 // latency ms per shape
	ByClass           map[string][]float64
	All               []float64
	FirstErr          error
}

func newQueryStats() *queryStats {
	return &queryStats{ByShape: map[string][]float64{}, ByClass: map[string][]float64{}}
}

func (qs *queryStats) add(q *query, d time.Duration, err error) {
	qs.Attempted++
	if err != nil {
		qs.Failed++
		if qs.FirstErr == nil {
			qs.FirstErr = err
		}
		return
	}
	v := ms(d)
	qs.ByShape[q.Shape] = append(qs.ByShape[q.Shape], v)
	qs.ByClass[q.Class] = append(qs.ByClass[q.Class], v)
	qs.All = append(qs.All, v)
}

func (qs *queryStats) merge(o *queryStats) {
	qs.Attempted += o.Attempted
	qs.Failed += o.Failed
	if qs.FirstErr == nil {
		qs.FirstErr = o.FirstErr
	}
	for k, v := range o.ByShape {
		qs.ByShape[k] = append(qs.ByShape[k], v...)
	}
	for k, v := range o.ByClass {
		qs.ByClass[k] = append(qs.ByClass[k], v...)
	}
	qs.All = append(qs.All, o.All...)
}

// runQuery issues one request; verify compares the body with the
// reference, otherwise only the status is checked.
func runQuery(client *http.Client, base string, q *query, verify bool) (time.Duration, error) {
	t0 := time.Now()
	status, _, body, err := get(client, base+q.Path)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if status != http.StatusOK {
		return d, fmt.Errorf("%s: status %d", q.Path, status)
	}
	if verify {
		return d, q.check(body)
	}
	return d, nil
}

// runPass replays the plan once from `clients` closed-loop connections;
// requests are handed out in plan order.
func runPass(clients []*http.Client, base string, plan []*query, verify bool) *queryStats {
	total := newQueryStats()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, client := range clients {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			qs := newQueryStats()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					break
				}
				d, err := runQuery(client, base, plan[i], verify)
				qs.add(plan[i], d, err)
			}
			mu.Lock()
			total.merge(qs)
			mu.Unlock()
		}(client)
	}
	wg.Wait()
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
