package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/console"
)

// Replay client.
//
// StreamLog drives a titand /ingest endpoint from a console log: it
// batches lines, optionally paces them against the embedded timestamps
// (replaying history at a configurable speedup) or against a target
// offered rate (for overload experiments), fans batches across
// concurrent senders, and accounts for accepted, shed and failed lines.
// cmd/titanload and titansim -stream are thin wrappers around it; the
// ingest benchmark uses it to measure capacity and shedding.

// StreamOptions tunes a replay.
type StreamOptions struct {
	// BatchLines is how many console lines ride in one POST (default 512).
	BatchLines int
	// Concurrency is the number of parallel senders (default 1). Note
	// that equivalence with the batch pipeline is only guaranteed at
	// Concurrency 1 with Retry429: a single in-order admission stream.
	Concurrency int
	// Speedup replays history at this multiple of real time, pacing
	// batches by the timestamps embedded in the lines (0 = no pacing).
	Speedup float64
	// TargetRate offers lines at this aggregate rate in lines/s,
	// ignoring embedded timestamps (0 = unpaced). Used to hold offered
	// load at a set multiple of measured capacity.
	TargetRate float64
	// Retry429 resends shed batches after the server's Retry-After
	// hint instead of counting them dropped — lossless streaming.
	Retry429 bool
	// RequestTimeout bounds one POST (default 30 s).
	RequestTimeout time.Duration
	// Source tags every batch with an X-Titan-Source header — the feed
	// identity the router's per-source QoS and the replica's per-source
	// accounting key on (empty = untagged).
	Source string
}

// StreamStats is the client-side account of one replay.
type StreamStats struct {
	LinesRead     uint64
	LinesAccepted uint64
	LinesShed     uint64
	LinesFailed   uint64
	Batches       uint64
	Batches429    uint64
	Retries       uint64
	Elapsed       time.Duration

	mu        sync.Mutex
	latencies []time.Duration
}

// observe books one successful round trip.
func (st *StreamStats) observe(d time.Duration) {
	st.mu.Lock()
	st.latencies = append(st.latencies, d)
	st.mu.Unlock()
}

// Percentile returns the p-th latency percentile over successful
// batches (p in [0,100]); zero when nothing succeeded.
func (st *StreamStats) Percentile(p float64) time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.latencies) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(st.latencies))
	copy(sorted, st.latencies)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// LinesPerSecond is the accepted-line throughput over the whole replay.
func (st *StreamStats) LinesPerSecond() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.LinesAccepted) / st.Elapsed.Seconds()
}

// ShedFraction is shed lines over offered lines.
func (st *StreamStats) ShedFraction() float64 {
	offered := st.LinesAccepted + st.LinesShed
	if offered == 0 {
		return 0
	}
	return float64(st.LinesShed) / float64(offered)
}

func (st *StreamStats) String() string {
	return fmt.Sprintf("streamed %d lines in %v: %d accepted (%.0f lines/s), %d shed (%.1f%%), %d failed, p99 %v",
		st.LinesRead, st.Elapsed.Round(time.Millisecond), st.LinesAccepted, st.LinesPerSecond(),
		st.LinesShed, 100*st.ShedFraction(), st.LinesFailed, st.Percentile(99).Round(time.Microsecond))
}

// lineTime parses the leading "[2006-01-02 15:04:05]" timestamp of a
// console line; ok is false for lines without one.
func lineTime(line []byte) (time.Time, bool) {
	if len(line) < 21 || line[0] != '[' {
		return time.Time{}, false
	}
	t, err := time.ParseInLocation("2006-01-02 15:04:05", string(line[1:20]), time.UTC)
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}

// StreamLog replays the console log from r into the /ingest endpoint at
// baseURL (e.g. "http://localhost:9123"). It returns the stats even on
// error, so partial replays stay measurable.
func StreamLog(ctx context.Context, baseURL string, r io.Reader, opt StreamOptions) (*StreamStats, error) {
	if opt.BatchLines <= 0 {
		opt.BatchLines = 512
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 1
	}
	if opt.RequestTimeout <= 0 {
		opt.RequestTimeout = 30 * time.Second
	}
	url := baseURL + "/ingest"
	client := &http.Client{Timeout: opt.RequestTimeout}
	stats := &StreamStats{}
	start := time.Now()

	batches := make(chan []byte, opt.Concurrency*2)
	var senderErr atomic.Value
	var wg sync.WaitGroup
	for i := 0; i < opt.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range batches {
				if err := sendBatch(ctx, client, url, body, opt, stats); err != nil {
					senderErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}

	// Reader: chunk lines into batches, pacing as configured.
	var (
		sc        = bufio.NewScanner(r)
		buf       = make([]byte, 0, opt.BatchLines*128)
		lines     int
		simStart  time.Time
		wallStart = time.Now()
		sent      uint64
		readErr   error
	)
	sc.Buffer(make([]byte, 64<<10), 2<<20)
	flush := func() bool {
		if lines == 0 {
			return true
		}
		if opt.TargetRate > 0 {
			// Hold the offered rate: release the batch no earlier than
			// its position in an ideal constant-rate schedule.
			due := wallStart.Add(time.Duration(float64(sent) / opt.TargetRate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		body := make([]byte, len(buf))
		copy(body, buf)
		select {
		case batches <- body:
		case <-ctx.Done():
			readErr = ctx.Err()
			return false
		}
		sent += uint64(lines)
		buf, lines = buf[:0], 0
		return true
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if opt.Speedup > 0 {
			if ts, ok := lineTime(line); ok {
				if simStart.IsZero() {
					simStart = ts
					wallStart = time.Now()
				} else {
					due := wallStart.Add(time.Duration(float64(ts.Sub(simStart)) / opt.Speedup))
					if d := time.Until(due); d > 0 {
						if !flush() {
							break
						}
						time.Sleep(d)
					}
				}
			}
		}
		stats.LinesRead++
		buf = append(buf, line...)
		buf = append(buf, '\n')
		lines++
		if lines >= opt.BatchLines {
			if !flush() {
				break
			}
		}
	}
	if readErr == nil {
		flush()
		readErr = sc.Err()
	}
	close(batches)
	wg.Wait()
	stats.Elapsed = time.Since(start)

	if readErr != nil {
		return stats, fmt.Errorf("serve: streaming log: %w", readErr)
	}
	if err, _ := senderErr.Load().(error); err != nil {
		return stats, err
	}
	return stats, nil
}

// sendBatch POSTs one batch, honoring Retry429.
func sendBatch(ctx context.Context, client *http.Client, url string, body []byte, opt StreamOptions, stats *StreamStats) error {
	lines := uint64(console.CountLines(body))
	header := http.Header{"Content-Type": {"text/plain"}}
	if opt.Source != "" {
		header.Set(SourceHeader, opt.Source)
	}
	resp, rtt, err := PostRetry(ctx, client, url, header, body, func(status int) bool {
		if status == 0 {
			return false
		}
		atomic.AddUint64(&stats.Batches, 1)
		if status != http.StatusTooManyRequests {
			return false
		}
		atomic.AddUint64(&stats.Batches429, 1)
		if opt.Retry429 {
			atomic.AddUint64(&stats.Retries, 1)
		}
		return opt.Retry429
	})
	switch {
	case err != nil:
		atomic.AddUint64(&stats.LinesFailed, lines)
		return fmt.Errorf("serve: POST /ingest: %w", err)
	case resp.StatusCode == http.StatusAccepted:
		stats.observe(rtt)
		atomic.AddUint64(&stats.LinesAccepted, lines)
	case resp.StatusCode == http.StatusTooManyRequests:
		atomic.AddUint64(&stats.LinesShed, lines)
	default:
		atomic.AddUint64(&stats.LinesFailed, lines)
		return fmt.Errorf("serve: POST /ingest: unexpected status %s", resp.Status)
	}
	return nil
}
