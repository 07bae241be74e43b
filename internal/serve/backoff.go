package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// jitterDur spreads a backoff uniformly over [d/2, 3d/2) so retriers
// that failed together — compaction chunks against a briefly-sick
// disk, senders shed by the same full daemon — do not retry together
// and collide again.
func jitterDur(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// PostRetry POSTs body to url until an attempt comes out that retry does
// not ask to repeat: the one /ingest delivery loop, the replay client's
// and the router's. retry is shown every attempt's status — 0 when the
// request itself failed — and is where the caller counts. Between
// attempts it waits a tenth of the server's Retry-After when one came,
// else a backoff doubling from 5 ms past 250 ms, jittered either way, or
// until ctx ends. It returns the last attempt: its response (body
// drained and closed) and round-trip time, or its error.
func PostRetry(ctx context.Context, client *http.Client, url string, header http.Header, body []byte, retry func(status int) bool) (*http.Response, time.Duration, error) {
	backoff := 5 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, 0, fmt.Errorf("building request: %w", err)
		}
		req.Header = header
		t0 := time.Now()
		resp, err := client.Do(req)
		status := 0
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				backoff = time.Duration(secs) * time.Second / 10
			}
		}
		if !retry(status) {
			return resp, time.Since(t0), err
		}
		select {
		case <-time.After(jitterDur(backoff)):
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}
