//go:build linux

// Command bench is titanre's benchmark: one command that builds the real
// cmd/ binaries, drives them as child processes from a single-process
// load generator, checks every output against a naively folded
// reference, and prints every metric by name with its unit.
//
//	go run ./bench                      the whole suite, then the traced run
//	go run ./bench -workload backfill   one workload (the BENCHMARK.json contract)
//	go run ./bench -workload backfill -trace 1   the layer-by-layer traced run
//	go run ./bench -aa [-runs N]        two sets of runs of the same build, compared
//	go run ./bench -quick               every workload and oracle at test scale
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 45

// endToEndSpecs are the figures a user of the system sees. Every workload
// reports all five; what the unit and the timed operation are per workload
// is tabulated in README.md. The bound is the share of the parent's
// median by which the metric may worsen before a change is a regression;
// all are the widest the contract allows, because ten runs on this host
// spread 2-8% while it holds one pace and by the size of the change when
// it does not (README.md, "Run-to-run agreement").
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
}

func main() {
	workload := flag.String("workload", "", "run one workload and end with the contract's JSON line (default: the whole suite)")
	seed := flag.Int64("seed", 1, "seed the corpus and the request parameters are generated from")
	seconds := flag.Float64("seconds", runSeconds, "how long each workload measures")
	trace := flag.Int("trace", 0, "1: run the in-process traced run and report per-layer metrics instead")
	aa := flag.Bool("aa", false, "run the suite twice on this build and compare the two sets against the bounds")
	runs := flag.Int("runs", 3, "with -aa: runs per workload in each set, each on its own seed")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as this code declares it, and exit")
	quick := flag.Bool("quick", false, "test scale: one month, one set-up, correctness on, timings printed but not recorded")
	flag.Parse()
	if *spec {
		printSpec()
		return
	}

	// Pinned before anything else starts a thread or a child.
	cpu, err := pinToOneCPU()
	if err != nil {
		fatal(err)
	}
	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	// A signal must not strand children or scratch data.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(1)
	}()
	code := 0
	func() {
		defer e.close()
		r := &run{env: e, cpu: cpu, sc: fullScale, seed: *seed, seconds: *seconds, logf: logf}
		if *quick {
			r.sc = quickScale
		}
		out, _ := json.Marshal(r.stamp()) // plain fields; cannot fail
		logf("environment: %s", out)
		switch {
		case *aa:
			code = runAA(r, *runs)
		case *workload != "":
			code = runContract(r, *workload, *trace == 1)
		default:
			code = runSuite(r, *quick)
		}
	}()
	os.Exit(code)
}

// printSpec renders BENCHMARK.json from the tables the code measures by;
// TestBenchmarkJSON holds the committed file to it.
func printSpec() {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEndSpecs, PerLayer: perLayerSpecs}
	for _, w := range declaredWorkloads() {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// measure runs a workload, or the traced run that reports its layers,
// and refuses a result that does not carry every declared metric.
func measure(r *run, workload string, traced bool) (*result, error) {
	for _, w := range workloadSpecs {
		if w.Name != workload {
			continue
		}
		var res *result
		var err error
		if traced {
			if res, err = r.tracedRun(workload); err == nil {
				err = validate(res, perLayerSpecs, false)
			}
		} else if res, err = w.run(r); err == nil {
			err = validate(res, endToEndSpecs, true)
		}
		return res, err
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// validate rejects a result no one should compare against: a missing or
// non-finite metric, or an end-to-end metric that read zero.
func validate(res *result, specs []metricSpec, nonZero bool) error {
	have := map[string]float64{}
	for _, m := range res.Metrics {
		have[m.Name] = m.Value
	}
	if len(have) != len(specs) {
		return fmt.Errorf("%s reported %d metrics, the specification names %d", res.Workload, len(have), len(specs))
	}
	for _, s := range specs {
		v, ok := have[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (nonZero && v == 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", res.Workload, s.Name, v)
		}
	}
	return nil
}

func printResult(res *result) {
	for _, m := range res.Metrics {
		fmt.Printf("%-15s %-40s = %14.4f %s\n", res.Workload, m.Name, m.Value, m.Unit)
	}
	for _, m := range res.Detail {
		fmt.Printf("%-15s   %-38s = %14.4f %s\n", res.Workload, m.Name, m.Value, m.Unit)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%-15s   %-38s = %14.6f ratio (%d failed of %d attempted)\n", res.Workload, "error_rate", rate, res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Printf("%-15s   INCORRECT: %s\n", res.Workload, p)
	}
}

// runContract is the BENCHMARK.json command: one workload, one JSON line.
func runContract(r *run, workload string, traced bool) int {
	res, err := measure(r, workload, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(res)
	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]recorded `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]recorded{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = recorded{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// stamp is the environment every recorded result carries.
type stamp struct {
	Commit     string            `json:"commit"`
	NProc      int               `json:"nproc"`
	PinnedCPU  int               `json:"pinned_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	TempFS     string            `json:"temp_dir_filesystem"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Scale      scale             `json:"scale"`
	Durability map[string]string `json:"durability"`
	When       string            `json:"when"`
}

func (r *run) stamp() stamp {
	s := stamp{
		Commit: "unknown", NProc: runtime.NumCPU(), PinnedCPU: r.cpu, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", TempFS: "unknown",
		Seed: r.seed, Seconds: r.seconds, Scale: r.sc, When: time.Now().UTC().Format(time.RFC3339),
		Durability: map[string]string{
			"backfill":       "journal fsync=interval (100ms), compact-interval=250ms, mmap on",
			"fleet_backfill": "each replica: journal fsync=interval (100ms), compact-interval=250ms, mmap on",
			"live_mixed":     "journal fsync=interval (100ms), compact-interval=250ms, mmap on",
			"query_sealed":   "no journal, default compaction (idle), mmap on",
			"batch_report":   "no daemon",
		},
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = r.env.root
	if out, err := cmd.Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(r.env.work, &fs); err == nil {
		s.TempFS = fmt.Sprintf("0x%x", uint64(fs.Type))
	}
	return s
}

// suiteResults is what `go run ./bench` leaves in bench/out/results.json.
type suiteResults struct {
	Stamp   stamp                          `json:"environment"`
	Results map[string]map[string]recorded `json:"results"`
}

// recorded is one metric as it is written out, in the contract's JSON
// line and in results.json alike.
type recorded struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSuite runs the five workloads and the traced run and prints every
// metric; at full scale the figures and the stamp are also recorded.
func runSuite(r *run, quick bool) int {
	code := 0
	rec := suiteResults{Stamp: r.stamp(), Results: map[string]map[string]recorded{}}
	keep := func(res *result) {
		printResult(res)
		if !res.correct() {
			code = 1
		}
		row := map[string]recorded{}
		for _, m := range append(append([]metric{}, res.Metrics...), res.Detail...) {
			if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
				row[m.Name] = recorded{m.Value, m.Unit}
			}
		}
		rec.Results[res.Workload] = row
	}
	var backfillCPU float64
	for _, w := range workloadSpecs {
		res, err := measure(r, w.Name, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		keep(res)
		if w.Name == "backfill" {
			backfillCPU = res.value("cpu_us_per_unit")
		}
	}
	tr, err := measure(r, "backfill", true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tr.Workload = "traced"
	// The traced run attributes its own short backfill; against the full
	// end-to-end figure the same layer costs leave this much unexplained.
	tr.detail("serve.unattributed_us_per_line.vs_backfill", backfillCPU-tr.value("serve.attributed_us_per_line"), "us")
	keep(tr)
	if quick {
		return code
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(r.env.root, "bench", "out", "results.json"), append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("# results and environment stamp written to bench/out/results.json")
	return code
}

// runAA runs every workload `runs` times in each of two sets on the same
// build (set B reuses set A's seeds) and prints, per end-to-end metric
// and workload, both medians, how much worse B read than A, the spread
// inside set A, and the bound. A difference beyond its bound fails.
func runAA(r *run, runs int) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for _, w := range declaredWorkloads() {
			for i := 0; i < runs; i++ {
				rr := *r
				rr.seed = r.seed + int64(i)
				rr.logf = func(string, ...any) {}
				res, err := measure(&rr, w.Name, false)
				if err == nil && !res.correct() {
					err = fmt.Errorf("%s: incorrect: %v", w.Name, res.Problems)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for _, m := range res.Metrics {
					k := key{w.Name, m.Name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				logf("set %c %s seed %d done", 'A'+set, w.Name, rr.seed)
			}
		}
	}
	code := 0
	fmt.Printf("%-15s %-18s %14s %14s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "bound")
	for _, w := range declaredWorkloads() {
		for _, s := range endToEndSpecs {
			k := key{w.Name, s.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			diff := relDiff(a, b, s.Better == "higher")
			verdict := ""
			if diff > s.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-15s %-18s %14.4f %14.4f %8.1f%% %8.1f%% %6.0f%%%s\n",
				w.Name, s.Name, a, b, 100*diff, 100*iqrShare(sets[0][k]), 100*s.Bound, verdict)
		}
	}
	return code
}
