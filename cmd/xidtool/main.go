// Command xidtool is the operator's utility over the XID catalog and
// console logs:
//
//	xidtool list                   print the full error catalog
//	xidtool explain <code>        describe one XID (causes, crash semantics)
//	xidtool stats [flags] <console.log>  per-code event counts in a log
//	xidtool rules                  dump the production SEC rule set
//	xidtool device <snap> <cname>  nvidia-smi -q style view of one card
//	xidtool heatmap <console.log>  Fig-13-style co-occurrence matrix
//	xidtool alerts <console.log>   replay the operator alerting rules
//	xidtool grep <console.log>     filter a log
//	    -code N      only this XID (use -2 for off-the-bus)
//	    -node CNAME  only this node
//	    -window D    collapse child events within D (e.g. 5s), per code
//	    -rules FILE  use a custom SEC rule configuration
//
// It consumes the raw console-line format via the same SEC rules the
// study used.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"titanre/internal/alert"
	"titanre/internal/console"
	"titanre/internal/filtering"
	"titanre/internal/ingest"
	"titanre/internal/nvsmi"
	"titanre/internal/report"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list()
	case "explain":
		if len(os.Args) < 3 {
			usage()
		}
		explain(os.Args[2])
	case "stats":
		stats(os.Args[2:])
	case "rules":
		if err := console.WriteRules(os.Stdout, console.NewCorrelator().Rules()); err != nil {
			fmt.Fprintln(os.Stderr, "xidtool:", err)
			os.Exit(1)
		}
	case "device":
		if len(os.Args) < 4 {
			usage()
		}
		device(os.Args[2], os.Args[3])
	case "heatmap":
		if len(os.Args) < 3 {
			usage()
		}
		heatmap(os.Args[2])
	case "alerts":
		if len(os.Args) < 3 {
			usage()
		}
		alerts(os.Args[2])
	case "grep":
		grep(os.Args[2:])
	default:
		usage()
	}
}

func alerts(path string) {
	events := parseLog(path)
	eng := alert.NewEngine(alert.DefaultConfig())
	eng.Run(events)
	for _, a := range eng.Alerts() {
		fmt.Println(a)
	}
	fmt.Fprintf(os.Stderr, "%d alerts\n", len(eng.Alerts()))
}

func heatmap(path string) {
	events := parseLog(path)
	codes := []xid.Code{xid.OffTheBus, 13, 31, 32, 38, 43, 44, 45, 48, 57, 58, 59, 62, 63}
	m := filtering.CooccurrenceMatrix(events, codes, 300*time.Second, false)
	labels := make([]string, len(codes))
	for i, c := range codes {
		labels[i] = c.String()
	}
	report.Heatmap(os.Stdout, "P(next within 300 s | prev)", labels, m)
}

func device(snapPath, cname string) {
	f, err := os.Open(snapPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xidtool:", err)
		os.Exit(1)
	}
	defer f.Close()
	snap, err := nvsmi.ReadSnapshot(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xidtool:", err)
		os.Exit(1)
	}
	n, err := topology.ParseNodeID(cname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xidtool:", err)
		os.Exit(1)
	}
	d, ok := snap.FindDevice(n)
	if !ok {
		fmt.Fprintf(os.Stderr, "xidtool: no device at %s in snapshot\n", cname)
		os.Exit(1)
	}
	nvsmi.RenderDevice(os.Stdout, d)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xidtool {list | explain <code> | stats <log> | rules | heatmap <log> | alerts <log> | device <snapshot> <cname> | grep [flags] <log>}")
	os.Exit(2)
}

func list() {
	fmt.Println("GPU error catalog (paper Tables 1 and 2):")
	for _, info := range xid.All() {
		crash := "continues"
		if info.CrashesApp {
			crash = "crashes app"
		}
		fmt.Printf("%-8s %-10s %-12s %s\n", info.Code, info.Class, crash, info.Name)
	}
}

func explain(arg string) {
	n, err := strconv.Atoi(arg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xidtool: bad code %q\n", arg)
		os.Exit(1)
	}
	info, ok := xid.Lookup(xid.Code(n))
	if !ok {
		fmt.Fprintf(os.Stderr, "xidtool: code %d is not part of the study's catalog\n", n)
		os.Exit(1)
	}
	fmt.Println(info)
	fmt.Printf("  class:            %s\n", info.Class)
	fmt.Printf("  crashes app:      %t\n", info.CrashesApp)
	fmt.Printf("  app-related:      %t\n", info.AppRelated)
	fmt.Printf("  driver-related:   %t\n", info.DriverIssue)
	fmt.Printf("  thermal:          %t\n", info.Thermal)
	fmt.Printf("  job-wide reports: %t\n", info.PropagatesToJob)
	fmt.Println("  possible causes:")
	for _, c := range info.Causes {
		fmt.Printf("    - %s\n", c)
	}
}

func parseLog(path string) []console.Event {
	return parseLogWith(console.NewCorrelator(), path)
}

// parseLogWith reads a console log through the recovering ingest path:
// corrupt lines are quarantined (summary on stderr) instead of aborting
// the tool, and the exit code is non-zero only when ingestion fails
// outright — the file is unreadable, or it had lines and none survived.
func parseLogWith(c *console.Correlator, path string) []console.Event {
	f, err := ingest.OpenWithRetry(path, ingest.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, "xidtool:", err)
		os.Exit(1)
	}
	defer f.Close()
	events, health, err := ingest.IngestConsole(f, c, ingest.DefaultOptions())
	health.Name = path
	if !health.Clean() {
		h := ingest.Health{Artifacts: []*ingest.ArtifactHealth{health}}
		h.WriteSummary(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xidtool:", err)
		os.Exit(1)
	}
	if health.Read > 0 && health.Accepted+health.Recovered == 0 {
		fmt.Fprintf(os.Stderr, "xidtool: ingestion failed: all %d lines of %s quarantined\n", health.Read, path)
		os.Exit(1)
	}
	return events
}

func stats(args []string) {
	if len(args) != 1 {
		usage()
	}
	correlator := console.NewCorrelator()
	events := parseLogWith(correlator, args[0])
	counts := map[xid.Code]int{}
	for _, e := range events {
		counts[e.Code]++
	}
	codes := make([]xid.Code, 0, len(counts))
	for c := range counts {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	fmt.Printf("%d events\n", len(events))
	for _, c := range codes {
		name := ""
		if info, ok := xid.Lookup(c); ok {
			name = info.Name
		}
		fmt.Printf("%-8s %7d  %s\n", c, counts[c], name)
	}
	// Parser health, so operators see the loss alongside the counts (the
	// fast counters stay zero: the recovering pipeline classifies with
	// the regex rules directly).
	fmt.Printf("decoder: %d fast-path, %d regex-fallback, %d chatter, %d malformed, %d oversized\n",
		correlator.FastHits, correlator.FastFallbacks, correlator.Dropped, correlator.Malformed, correlator.Oversized)
}

func grep(args []string) {
	fs := flag.NewFlagSet("grep", flag.ExitOnError)
	code := fs.Int("code", 0, "only this XID code (0 = all)")
	node := fs.String("node", "", "only this node (cname)")
	window := fs.Duration("window", 0, "collapse child events within this window")
	rulesPath := fs.String("rules", "", "SEC rule configuration file (default: built-in production rules)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		usage()
	}
	correlator := console.NewCorrelator()
	if *rulesPath != "" {
		rf, err := os.Open(*rulesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xidtool:", err)
			os.Exit(1)
		}
		rules, err := console.ParseRules(rf)
		rf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "xidtool:", err)
			os.Exit(1)
		}
		correlator = console.NewCorrelatorFromRules(rules)
	}
	events := parseLogWith(correlator, fs.Arg(0))
	if *code != 0 {
		events = filtering.ByCode(events, xid.Code(*code))
	}
	if *node != "" {
		n, err := topology.ParseNodeID(*node)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xidtool:", err)
			os.Exit(1)
		}
		var kept []console.Event
		for _, e := range events {
			if e.Node == n {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if *window > 0 {
		events = filtering.TimeThreshold(events, *window)
	}
	for _, e := range events {
		fmt.Println(e.Raw())
	}
	fmt.Fprintf(os.Stderr, "%d events\n", len(events))
}
