// Command titanload replays a console log into a running titand,
// measuring what the service accepted, shed and how fast.
//
// Usage:
//
//	titanload [-url http://localhost:9123] [-batch N] [-concurrency N]
//	          [-speedup F | -rate LINES/S] [-shed] [-source NAME] [-json]
//	          <console.log>
//
// -source tags every batch with an X-Titan-Source feed identity. The
// target (titand or titanrouter) books offered, accepted and shed lines
// per source; after the replay the client fetches the target's /stats
// and reports that server-side account next to its own, so QoS
// experiments can check the two agree exactly.
//
// By default the replay is lossless: batches the service sheds with 429
// are retried after its Retry-After hint, so every line lands exactly
// once and in order (at -concurrency 1 the online state ends up
// byte-identical to the batch pipeline). With -shed the client counts
// 429s instead of retrying — the overload-experiment mode, which reads
// the shed fraction at a fixed offered -rate.
//
// -speedup paces the replay against the timestamps embedded in the log
// (2.0 = twice real time); -rate offers a constant line rate ignoring
// timestamps. Unpaced, the client pushes as fast as the service admits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"titanre/internal/serve"
)

func main() {
	url := flag.String("url", "http://localhost:9123", "titand base URL")
	batch := flag.Int("batch", 512, "console lines per POST")
	concurrency := flag.Int("concurrency", 1, "parallel senders (1 preserves the batch-equivalent ordering)")
	speedup := flag.Float64("speedup", 0, "replay at this multiple of real time, paced by embedded timestamps (0 = unpaced)")
	rate := flag.Float64("rate", 0, "offer a constant rate in lines/s, ignoring timestamps (0 = unpaced)")
	shed := flag.Bool("shed", false, "count 429s as shed instead of retrying (overload experiments)")
	source := flag.String("source", "", "tag batches with this X-Titan-Source feed identity and report the target's per-source account")
	jsonOut := flag.Bool("json", false, "print the replay stats as JSON on stdout")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: titanload [flags] <console.log>  (use - for stdin)")
		os.Exit(2)
	}
	if *speedup > 0 && *rate > 0 {
		fatal(fmt.Errorf("-speedup and -rate are mutually exclusive"))
	}

	var in io.Reader = os.Stdin
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	stats, err := serve.StreamLog(context.Background(), *url, in, serve.StreamOptions{
		BatchLines:     *batch,
		Concurrency:    *concurrency,
		Speedup:        *speedup,
		TargetRate:     *rate,
		Retry429:       !*shed,
		RequestTimeout: *timeout,
		Source:         *source,
	})
	if stats != nil {
		fmt.Fprintln(os.Stderr, "titanload:", stats)
		serverSide := fetchSourceStats(*url, *source)
		if serverSide != nil {
			fmt.Fprintf(os.Stderr, "titanload: server account for source %q: offered %v, accepted %v, shed %v lines\n",
				*source, serverSide["offered_lines"], serverSide["accepted_lines"], serverSide["shed_lines"])
		}
		if *jsonOut {
			doc := map[string]any{
				"lines_read":     stats.LinesRead,
				"lines_accepted": stats.LinesAccepted,
				"lines_shed":     stats.LinesShed,
				"lines_failed":   stats.LinesFailed,
				"batches":        stats.Batches,
				"batches_429":    stats.Batches429,
				"retries":        stats.Retries,
				"elapsed_sec":    stats.Elapsed.Seconds(),
				"lines_per_sec":  stats.LinesPerSecond(),
				"shed_fraction":  stats.ShedFraction(),
				"p99_ms":         float64(stats.Percentile(99).Microseconds()) / 1000,
			}
			if *source != "" {
				doc["source"] = *source
			}
			if serverSide != nil {
				doc["server_source_stats"] = serverSide
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

// fetchSourceStats pulls the target's /stats and returns its account
// for the named source — titand and titanrouter share the JSON field
// names, so the same decode covers both. Nil when untagged, on any
// fetch error, or when the target has not seen the source.
func fetchSourceStats(baseURL, source string) map[string]any {
	if source == "" {
		return nil
	}
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var doc struct {
		Sources map[string]map[string]any `json:"sources"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
		return nil
	}
	return doc.Sources[source]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "titanload:", err)
	os.Exit(1)
}
