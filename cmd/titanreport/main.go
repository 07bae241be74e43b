// Command titanreport runs the full study — simulate the production
// period, analyze the logs — and prints every figure and table of the
// paper, followed by the automated checks of its fourteen observations.
//
// Usage:
//
//	titanreport [-seed N] [-months M] [-obs-only] [-data DIR]
//
// With -data, the report is computed from a dataset directory written by
// titansim instead of running a fresh simulation — the console log is
// re-parsed through the SEC rules, exactly like the production pipeline.
// The load goes through the recovering ingest path: corrupted lines are
// quarantined instead of killing the run, a quarantine summary goes to
// stderr, and the report gains an ingestion-health section whenever the
// load was not perfectly clean. -strict restores the fail-fast loader.
// The command exits non-zero when ingestion fails outright (no readable
// artifacts). The load, the report render and -query all run at
// GOMAXPROCS width; their output is identical at any width.
// -write-segments seals the dataset's console events into columnar
// segments (DIR/segments);
// once sealed, -strict loads skip the console parse entirely and the
// study runs its per-code index off the segment bitmaps — the report
// bytes are identical either way. -query runs one titanql expression
// (see internal/titanql) instead of the report and prints its JSON
// document — the identical compiled plan titand serves on GET /query,
// executed segment-parallel when the dataset has sealed segments.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"titanre/internal/core"
	"titanre/internal/dataset"
	"titanre/internal/ingest"
	"titanre/internal/jsonw"
	"titanre/internal/sim"
	"titanre/internal/titanql"
	"titanre/internal/xid"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	months := flag.Int("months", 0, "shorten the horizon to M months (0 = full Jun'13..Feb'15)")
	obsOnly := flag.Bool("obs-only", false, "print only the observation checks")
	digest := flag.Bool("digest", false, "print the monthly operations digest instead of the full report")
	export := flag.String("export", "", "also write per-figure TSV data files into this directory")
	data := flag.String("data", "", "analyze a dataset directory written by titansim instead of simulating")
	strict := flag.Bool("strict", false, "fail fast on any dataset corruption instead of quarantining")
	writeSegments := flag.Bool("write-segments", false, "seal the dataset's console events into columnar segments (DIR/segments) so later loads skip the console parse")
	quarantine := flag.String("quarantine", "", "write the quarantine (dead-letter) log to this file")
	rollup := flag.String("rollup", "", "print a time-bucketed rollup JSON instead of the report: comma list of code, cabinet, cage, node (empty list = pure time series; same kernel as titand's GET /rollup)")
	rollupBucket := flag.Duration("rollup-bucket", time.Hour, "rollup bucket width (with -rollup)")
	rollupCode := flag.String("rollup-code", "", "restrict -rollup to one code (an XID number, sbe or otb)")
	query := flag.String("query", "", "run one titanql expression instead of the report, e.g. 'code=48 cabinet=c3-* | by cage | bucket 6h | top 5' (same compiled plan and bytes as titand's GET /query; with -data over sealed segments it executes segment-parallel)")
	flag.Parse()

	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	if *months > 0 {
		cfg.End = cfg.Start.AddDate(0, *months, 0)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var study *core.Study
	if *data != "" {
		if *months == 0 {
			// Infer the observation window from the data itself.
			cfg.Start, cfg.End = time.Time{}, time.Time{}
		}
		if *strict {
			if dataset.HasSegments(*data) {
				// Columnar fast path: events come from the sealed
				// segments (no console re-parse) and the study runs its
				// index off the per-code bitmaps.
				res, st, err := dataset.LoadStore(*data, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "titanreport:", err)
					os.Exit(1)
				}
				study = core.FromStore(res, st)
			} else {
				res, err := dataset.Load(*data, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "titanreport:", err)
					os.Exit(1)
				}
				study = core.FromResult(res)
			}
		} else {
			res, health, err := dataset.LoadResilient(*data, cfg, ingest.DefaultOptions())
			if health != nil && !health.Clean() {
				health.WriteSummary(os.Stderr)
			}
			if *quarantine != "" && health != nil {
				if werr := writeQuarantine(*quarantine, health); werr != nil {
					fmt.Fprintln(os.Stderr, "titanreport:", werr)
					os.Exit(1)
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "titanreport: ingestion failed:", err)
				os.Exit(1)
			}
			study = core.FromIngest(res, health)
		}
	} else {
		study = core.New(cfg)
	}

	if *writeSegments {
		if *data == "" {
			fmt.Fprintln(os.Stderr, "titanreport: -write-segments requires -data")
			os.Exit(1)
		}
		if dataset.HasSegments(*data) {
			fmt.Fprintf(os.Stderr, "%s already has sealed segments\n", *data)
		} else {
			if err := dataset.WriteSegments(*data, study.Events(), 0); err != nil {
				fmt.Fprintln(os.Stderr, "titanreport:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "sealed %d events into %s/%s\n", len(study.Events()), *data, dataset.SegmentsDir)
		}
	}

	if *rollup != "" || *rollupCode != "" {
		if err := printRollup(study, *rollup, *rollupBucket, *rollupCode); err != nil {
			fmt.Fprintln(os.Stderr, "titanreport:", err)
			os.Exit(1)
		}
		return
	}

	if *query != "" {
		res, err := study.Query(*query, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "titanreport:", err)
			os.Exit(1)
		}
		if _, err := jsonw.Write(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "titanreport:", err)
			os.Exit(1)
		}
		return
	}

	if *export != "" {
		if err := study.ExportFigures(*export); err != nil {
			fmt.Fprintln(os.Stderr, "titanreport:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figure data written to %s\n", *export)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if *digest {
		study.WriteMonthlyDigest(w)
		return
	}
	if *obsOnly {
		for _, oc := range study.CheckObservations() {
			status := "PASS"
			if !oc.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(w, "[%s] Obs %2d: %s\n        %s\n", status, oc.Number, oc.Claim, oc.Detail)
		}
		return
	}
	study.WriteReportConcurrent(w, runtime.GOMAXPROCS(0))
}

// printRollup spells the -rollup flags as a query plan, runs it like
// -query and prints the bare rollup inside the answer — the same
// document (and bytes) titand's GET /rollup serves for the same stream
// and parameters.
func printRollup(study *core.Study, by string, bucket time.Duration, codeArg string) error {
	plan := titanql.NewPlan()
	plan.Rollup.Bucket = bucket
	for _, dim := range strings.Split(by, ",") {
		if d := strings.TrimSpace(dim); d != "" && !plan.Rollup.GroupBy(d) {
			return fmt.Errorf("bad -rollup dimension %q: want code, cabinet, cage or node", dim)
		}
	}
	if codeArg != "" {
		code, err := xid.ParseCode(codeArg)
		if err != nil {
			return err
		}
		plan.Filter.Codes = []xid.Code{code}
	}
	res, err := study.Run(plan, 0)
	if err != nil {
		return err
	}
	res.Bare(codeArg)
	_, err = jsonw.Write(os.Stdout, res)
	return err
}

func writeQuarantine(path string, health *ingest.Health) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := health.WriteQuarantineLog(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
