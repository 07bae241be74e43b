// Command titand runs the live reliability telemetry service: it accepts
// raw console lines over HTTP, maintains the online per-node and
// per-card GPU state (sliding XID rates, ECC counters, dynamic page
// retirement), and runs the operator alert detectors plus optionally
// armed precursor rules on the stream.
//
// Usage:
//
//	titand [-addr :9123] [-queue N]
//	       [-train console.log] [-min-support N] [-min-confidence F]
//	       [-snapshot DIR] [-no-retain] [-warm-dir DIR]
//	       [-compact-interval D] [-compact-age D] [-compact-min N]
//	       [-journal] [-journal-fsync POLICY]
//	       [-journal-sync-interval D] [-journal-rotate-bytes N]
//	       [-pprof ADDR]
//
// Endpoints:
//
//	POST /ingest                 newline-delimited console lines (202
//	                             accepted, 429 + Retry-After when the
//	                             queue sheds, 503 while draining)
//	GET  /nodes/{cname}          one node's online state as JSON
//	GET  /nodes/{cname}/history  the node's full event history — sealed
//	                             segments plus the retained tail —
//	                             optionally bounded by ?since=/?until=
//	GET  /codes/{xid}/history    every event carrying one code,
//	                             fleet-wide, off the per-code bitmaps
//	                             (?since= ?until= ?limit=)
//	GET  /rollup                 time-bucketed fleet-wide counts —
//	                             ?by=code,cabinet&bucket=1h is the
//	                             paper's Fig 3 as live JSON
//	GET  /top                    offender cards ranked by event count
//	                             (?k= ?by=node|serial|code ?code=)
//	GET  /alerts                 every alert raised so far
//	GET  /warnings               every armed-rule precursor warning issued
//	GET  /stats                  ingest/decode/apply counters as JSON
//	GET  /metrics                the same in Prometheus text format
//	GET  /healthz                liveness (reports "draining" during
//	                             shutdown)
//
// SIGTERM or SIGINT drains gracefully: in-flight requests finish,
// everything admitted is applied, and with -snapshot the retained event
// log is flushed as a dataset-compatible directory that titanreport and
// xidtool can load.
//
// With -journal (requires -warm-dir) the daemon is crash-safe, not just
// drain-safe: every applied event is written ahead to an arrival-order
// journal under <warm-dir>/journal, so a kill -9 restart replays
// segments then journal and resumes byte-identical to a daemon that
// never died. -journal-fsync picks the durability policy (always,
// interval, off), -journal-sync-interval the interval cadence and
// -journal-rotate-bytes the per-file cap. Corrupt segments found at
// boot are quarantined with exact accounting instead of blocking the
// restart; /stats and /healthz carry the degraded flag.
//
// -warm-dir DIR is the one-flag state directory: the shutdown snapshot
// goes to DIR, segments to DIR/segments, and at boot any history found
// there is replayed so the daemon resumes with its windows, retirement
// machines, alert and precursor state exactly as the previous
// incarnation left them. A missing directory is a cold start, so the
// same command line works on first boot and every restart. With it the
// daemon runs with bounded memory: a background loop periodically seals
// retained events older than -compact-age into columnar segments on
// disk and drops them from the heap; /history and the shutdown snapshot
// read sealed and retained state together, so nothing is lost.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"titanre/internal/console"
	"titanre/internal/dataset"
	"titanre/internal/predict"
	"titanre/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9123", "listen address")
	queue := flag.Int("queue", 0, "batches admitted and not yet applied before /ingest sheds (0 = default 256)")
	window := flag.Duration("window", 0, "sliding rate window (0 = default 24h)")
	train := flag.String("train", "", "console.log to train the precursor predictor on (empty = no /warnings)")
	minSupport := flag.Int("min-support", 0, "predictor minimum rule support (0 = default)")
	minConfidence := flag.Float64("min-confidence", 0, "predictor minimum rule confidence (0 = default)")
	snapshot := flag.String("snapshot", "", "directory for the dataset snapshot written on shutdown")
	noRetain := flag.Bool("no-retain", false, "do not retain applied events (disables -snapshot, caps memory)")
	warmDir := flag.String("warm-dir", "", "state directory: replay its history at boot, snapshot to it and compact into its segments subdirectory")
	compactInterval := flag.Duration("compact-interval", 0, "background compaction period (0 = default 1m)")
	compactAge := flag.Duration("compact-age", 0, "events older than this, by stream time, are sealed (0 = default 10m)")
	compactMin := flag.Int("compact-min", 0, "minimum sealable events before a compaction runs (0 = default 1024)")
	journal := flag.Bool("journal", false, "write-ahead journal applied events under <warm-dir>/journal (crash safety; requires -warm-dir)")
	journalFsync := flag.String("journal-fsync", "", "journal fsync policy: always, interval, off (default interval)")
	journalSyncInterval := flag.Duration("journal-sync-interval", 0, "interval-policy fsync cadence (0 = default 100ms)")
	journalRotateBytes := flag.Int64("journal-rotate-bytes", 0, "rotate journal files past this size (0 = default 4MiB)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address, e.g. localhost:6060 (empty = off)")
	flag.Parse()

	cfg := serve.DefaultConfig()
	cfg.QueueDepth = *queue
	if *window > 0 {
		cfg.RateWindow = *window
	}
	cfg.SnapshotDir = *snapshot
	cfg.RetainEvents = !*noRetain
	cfg.CompactInterval = *compactInterval
	cfg.CompactAge = *compactAge
	cfg.CompactMin = *compactMin
	if *warmDir != "" {
		if cfg.SnapshotDir == "" {
			cfg.SnapshotDir = *warmDir
		}
		cfg.CompactDir = filepath.Join(*warmDir, dataset.SegmentsDir)
	}
	if *journal {
		if *warmDir == "" {
			fatal(fmt.Errorf("-journal needs -warm-dir (the journal lives in the state directory and replays at boot)"))
		}
		cfg.JournalDir = filepath.Join(*warmDir, "journal")
		cfg.JournalFsync = *journalFsync
		cfg.JournalSyncInterval = *journalSyncInterval
		cfg.JournalRotateBytes = *journalRotateBytes
	}
	if cfg.SnapshotDir != "" && !cfg.RetainEvents {
		fatal(fmt.Errorf("-snapshot needs retained events; drop -no-retain"))
	}

	if *train != "" {
		model, err := trainModel(*train, *minSupport, *minConfidence)
		if err != nil {
			fatal(err)
		}
		cfg.Model = model
		fmt.Fprintf(os.Stderr, "titand: armed %d precursor rules from %s\n", len(model.Rules()), *train)
		for _, r := range model.Rules() {
			fmt.Fprintf(os.Stderr, "titand:   %v\n", r)
		}
	}

	s := serve.NewServer(cfg)

	if *warmDir != "" {
		ws, err := s.WarmStart(*warmDir)
		if err != nil {
			fatal(err)
		}
		if ws.Replayed > 0 {
			src := "console.log"
			if ws.FromSegments {
				src = "sealed segments"
			}
			fmt.Fprintf(os.Stderr, "titand: warm start: restored %d events from checkpoint, replayed %d from %s in %s (open %s, checkpoint %s, replay %s, journal %s)\n",
				ws.Checkpointed, ws.Replayed-ws.Checkpointed, src, *warmDir,
				ws.Open, ws.CheckpointRestore, ws.SegmentReplay, ws.JournalReplay)
		}
		if ws.FromSegments && ws.CheckpointUnused != "" {
			fmt.Fprintf(os.Stderr, "titand: warm start: no checkpoint used (%s)\n", ws.CheckpointUnused)
		}
		if ws.JournalReplayed > 0 || ws.JournalTorn {
			torn := ""
			if ws.JournalTorn {
				torn = " (stopped at a torn record)"
			}
			fmt.Fprintf(os.Stderr, "titand: warm start: recovered %d events from the journal%s\n", ws.JournalReplayed, torn)
		}
		if ws.Quarantined > 0 {
			fmt.Fprintf(os.Stderr, "titand: warm start: DEGRADED — quarantined %d corrupt segment(s), %d events lost; see %s\n",
				ws.Quarantined, ws.EventsLost, filepath.Join(cfg.CompactDir, "quarantine"))
		}
	}

	if *pprofAddr != "" {
		// The profiler rides a side listener so profiling traffic never
		// competes with /ingest on the service port.
		go func() {
			fmt.Fprintf(os.Stderr, "titand: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "titand: pprof: %v\n", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "titand: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "titand: listening on %s\n", *addr)
	if err := s.Serve(*addr); err != nil {
		fatal(err)
	}
	if err := <-done; err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "titand: drained: %s\n", s)
	if cfg.SnapshotDir != "" {
		fmt.Fprintf(os.Stderr, "titand: snapshot written to %s\n", cfg.SnapshotDir)
	}
}

// trainModel learns precursor rules from an archived console log.
func trainModel(path string, minSupport int, minConfidence float64) (*predict.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := console.NewCorrelator()
	events, err := c.ParseAll(f)
	if err != nil {
		return nil, fmt.Errorf("training log: %w", err)
	}
	console.SortEvents(events)
	pcfg := predict.DefaultConfig()
	if minSupport > 0 {
		pcfg.MinSupport = minSupport
	}
	if minConfidence > 0 {
		pcfg.MinConfidence = minConfidence
	}
	return predict.Train(events, pcfg), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "titand:", err)
	os.Exit(1)
}
