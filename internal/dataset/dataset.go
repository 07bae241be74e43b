// Package dataset stores and loads the synthetic field dataset on disk as
// the four flat artifacts a site would actually keep:
//
//	console.log   raw console lines (SEC-parseable)
//	jobs.tsv      batch job log with node allocations
//	samples.tsv   per-job nvidia-smi SBE samples
//	snapshot.tsv  machine-wide nvidia-smi sweep
//
// Write and Load round-trip, so `titansim -out d` followed by
// `titanreport -data d` analyzes exactly the dataset that was written —
// through the same console-parsing path the study used.
package dataset

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"titanre/internal/console"
	"titanre/internal/durable"
	"titanre/internal/ingest"
	"titanre/internal/nvsmi"
	"titanre/internal/scheduler"
	"titanre/internal/sim"
)

// Artifact file names inside a dataset directory.
const (
	ConsoleFile  = "console.log"
	JobsFile     = "jobs.tsv"
	SamplesFile  = "samples.tsv"
	SnapshotFile = "snapshot.tsv"
)

// Sentinel errors distinguishing the two ways an artifact load fails.
// Both are wrapped with the artifact file name (and, for parse errors,
// the line number reported by the underlying reader), so errors.Is works
// through the full chain.
var (
	// ErrMissingArtifact: the artifact file does not exist.
	ErrMissingArtifact = errors.New("missing artifact")
	// ErrUnparseableArtifact: the artifact exists but its content could
	// not be decoded.
	ErrUnparseableArtifact = errors.New("unparseable artifact")
)

// Write stores a result's artifacts into dir, creating it if needed.
func Write(dir string, res *sim.Result) error {
	return write(durable.OS, dir, func(w io.Writer) error {
		return console.WriteLog(w, res.Events)
	}, res.Jobs, res.Samples, res.Snapshot)
}

// write stores the four artifacts, the console log through the given
// encoder, each atomically and durably (durable.WriteFile): a crash
// mid-write — titand's shutdown snapshot racing a second SIGKILL —
// leaves the previous artifact intact, never a torn one.
func write(fsys durable.FS, dir string, consoleLog func(io.Writer) error, jobs []scheduler.Record, samples []nvsmi.JobSample, snap nvsmi.Snapshot) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{ConsoleFile, consoleLog},
		{JobsFile, func(w io.Writer) error { return scheduler.WriteJobLog(w, jobs) }},
		{SamplesFile, func(w io.Writer) error { return nvsmi.WriteSamples(w, samples) }},
		{SnapshotFile, func(w io.Writer) error { return nvsmi.WriteSnapshot(w, snap) }},
	} {
		if err := durable.WriteFile(fsys, dir, a.name, a.write); err != nil {
			return fmt.Errorf("dataset: writing %s: %w", a.name, err)
		}
	}
	return nil
}

// WriteStream stores a dataset whose console events are pulled from an
// iterator instead of a materialized slice — titand's shutdown snapshot
// uses it to flush sealed segments plus the retained tail, on its own
// file system, without ever holding the full event history as one
// []Event. The three TSV artifacts are written as valid empty files (the
// stream never carries job or nvidia-smi data), exactly as Write does for
// a result without them, so the directory round-trips through Load.
func WriteStream(fsys durable.FS, dir string, next func() (console.Event, bool)) error {
	return write(durable.Or(fsys), dir, func(w io.Writer) error {
		return console.WriteLogStream(w, next)
	}, nil, nil, nvsmi.Snapshot{})
}

// Load reads a dataset directory back into a Result. The passed config
// supplies the operational context the flat files cannot carry (epoch
// dates, the faulty node, the propagation window); its Start and End are
// replaced by the observation window inferred from the data when they are
// zero. Per-job sample node lists are rejoined from the job log so
// offender-exclusion analyses keep working. Fleet state is not
// reconstructible from flat files and is left nil.
//
// Load is LoadWorkers at the machine's width; the result is identical at
// any worker count.
func Load(dir string, cfg sim.Config) (*sim.Result, error) {
	return LoadWorkers(dir, cfg, runtime.GOMAXPROCS(0))
}

// LoadWorkers is Load with explicit parallelism: the four artifacts are
// read concurrently, and the console log — by far the largest — is
// additionally sharded across the given number of parse workers.
// workers <= 1 loads everything serially. The assembled Result is
// byte-for-byte identical at every width (see TestLoadWorkersDigests);
// only the wall clock changes.
//
// When the dataset carries a sealed columnar segment directory (see
// WriteSegments), events come from the segment store instead of
// re-parsing the console log — the columnar fast path; the result is
// identical because segments round-trip the parsed log exactly.
func LoadWorkers(dir string, cfg sim.Config, workers int) (*sim.Result, error) {
	if HasSegments(dir) {
		res, _, err := LoadStoreWorkers(dir, cfg, workers)
		return res, err
	}
	return loadWorkers(dir, cfg, workers, nil)
}

// loadWorkers assembles a Result from the dataset's artifacts. A non-nil
// eventsFn supplies the console events (the columnar path); nil parses
// the console log.
func loadWorkers(dir string, cfg sim.Config, workers int, eventsFn func() ([]console.Event, error)) (*sim.Result, error) {
	if workers < 1 {
		workers = 1
	}
	res := &sim.Result{Config: cfg}

	var (
		events  []console.Event
		jobs    []scheduler.Record
		samples []nvsmi.JobSample
		snap    nvsmi.Snapshot
		// One error slot per artifact; the first failure in file order
		// wins, so concurrent and serial loads report the same error.
		errs [4]error
	)
	run := func(fns ...func()) {
		if workers <= 1 {
			for _, fn := range fns {
				fn()
			}
			return
		}
		var wg sync.WaitGroup
		for _, fn := range fns {
			wg.Add(1)
			go func(fn func()) {
				defer wg.Done()
				fn()
			}(fn)
		}
		wg.Wait()
	}
	run(
		func() {
			if eventsFn != nil {
				events, errs[0] = eventsFn()
				return
			}
			events, errs[0] = loadArtifact(dir, ConsoleFile, func(f *os.File) ([]console.Event, error) {
				if workers <= 1 {
					return console.NewCorrelator().ParseAll(f)
				}
				return console.NewCorrelator().ParseAllParallel(f, workers)
			})
		},
		func() {
			jobs, errs[1] = loadArtifact(dir, JobsFile, func(f *os.File) ([]scheduler.Record, error) {
				return scheduler.ReadJobLog(f)
			})
		},
		func() {
			samples, errs[2] = loadArtifact(dir, SamplesFile, func(f *os.File) ([]nvsmi.JobSample, error) {
				return nvsmi.ReadSamples(f)
			})
		},
		func() {
			snap, errs[3] = loadArtifact(dir, SnapshotFile, func(f *os.File) (nvsmi.Snapshot, error) {
				return nvsmi.ReadSnapshot(f)
			})
		},
	)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res.Events = events
	res.Jobs = jobs
	for _, r := range jobs {
		res.NodeHours += r.GPUCoreHours()
	}
	rejoinAllocations(samples, jobs)
	res.Samples = samples
	res.Snapshot = snap

	finishLoad(res)
	return res, nil
}

// loadArtifact opens and decodes one artifact, classifying failures with
// the sentinel errors and tagging them with the file name. Line-number
// context comes from the underlying readers' errors.
func loadArtifact[T any](dir, name string, parse func(*os.File) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return zero, fmt.Errorf("dataset: %s: %w: %w", name, ErrMissingArtifact, err)
		}
		return zero, fmt.Errorf("dataset: %s: %w", name, err)
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return zero, fmt.Errorf("dataset: %s: %w: %w", name, ErrUnparseableArtifact, err)
	}
	return v, nil
}

// rejoinAllocations restores per-sample node lists from the job log; the
// sample format does not repeat them.
func rejoinAllocations(samples []nvsmi.JobSample, jobs []scheduler.Record) {
	byID := make(map[console.JobID]int, len(jobs))
	for i, r := range jobs {
		byID[r.ID] = i
	}
	for i := range samples {
		if idx, ok := byID[samples[i].Job]; ok {
			samples[i].UsedNodes = jobs[idx].Nodes
		}
	}
}

// finishLoad infers the observation window when the config left it open.
func finishLoad(res *sim.Result) {
	if res.Config.Start.IsZero() || res.Config.End.IsZero() {
		start, end := inferWindow(res)
		if res.Config.Start.IsZero() {
			res.Config.Start = start
		}
		if res.Config.End.IsZero() {
			res.Config.End = end
		}
	}
}

// LoadResilient reads a dataset directory through the recovering ingest
// pipeline: per-line error isolation with quarantine instead of
// fail-fast, bounded resync of torn records, retry-with-backoff on
// transiently unreadable files, and graceful degradation when auxiliary
// artifacts are missing. The returned health ledger carries exact
// accounting (read = accepted + recovered + quarantined per artifact).
//
// On a byte-clean dataset it returns exactly what Load returns and a
// health ledger whose Clean() is true. An error is returned only when
// nothing analyzable survives — every artifact missing or unreadable.
func LoadResilient(dir string, cfg sim.Config, opts ingest.Options) (*sim.Result, *ingest.Health, error) {
	return LoadResilientWorkers(dir, cfg, opts, runtime.GOMAXPROCS(0))
}

// LoadResilientWorkers is LoadResilient with explicit parallelism: the
// four artifacts are ingested concurrently when workers > 1. The
// recovering line mender is inherently sequential (torn-record rejoin
// spans line boundaries), so each artifact stays a single stream, but
// the four streams overlap. Health accounting, artifact order and the
// assembled Result are identical at every width.
func LoadResilientWorkers(dir string, cfg sim.Config, opts ingest.Options, workers int) (*sim.Result, *ingest.Health, error) {
	res := &sim.Result{Config: cfg}
	health := &ingest.Health{}

	// Each artifact ingests into its own slot; health entries are
	// assembled in canonical file order afterwards so the ledger is
	// deterministic no matter which stream finishes first.
	var (
		arts    [4]*ingest.ArtifactHealth
		events  []console.Event
		jobs    []scheduler.Record
		samples []nvsmi.JobSample
		snap    nvsmi.Snapshot
	)
	open := func(name string) *os.File {
		f, err := ingest.OpenWithRetry(filepath.Join(dir, name), opts)
		if err != nil {
			return nil
		}
		return f
	}
	run := func(fns ...func()) {
		if workers <= 1 {
			for _, fn := range fns {
				fn()
			}
			return
		}
		var wg sync.WaitGroup
		for _, fn := range fns {
			wg.Add(1)
			go func(fn func()) {
				defer wg.Done()
				fn()
			}(fn)
		}
		wg.Wait()
	}
	run(
		func() {
			f := open(ConsoleFile)
			if f == nil {
				arts[0] = ingest.MissingArtifact(ConsoleFile)
				return
			}
			ev, h, err := ingest.IngestConsole(f, console.NewCorrelator(), opts)
			f.Close()
			h.Name = ConsoleFile
			arts[0] = h
			if err == nil || len(ev) > 0 {
				events = ev
			}
		},
		func() {
			f := open(JobsFile)
			if f == nil {
				arts[1] = ingest.MissingArtifact(JobsFile)
				return
			}
			j, h, err := ingest.IngestJobLog(f, opts)
			f.Close()
			h.Name = JobsFile
			arts[1] = h
			if err != nil && len(j) == 0 {
				j = nil
			}
			jobs = j
		},
		func() {
			f := open(SamplesFile)
			if f == nil {
				arts[2] = ingest.MissingArtifact(SamplesFile)
				return
			}
			s, h, err := ingest.IngestSamples(f, opts)
			f.Close()
			h.Name = SamplesFile
			arts[2] = h
			if err == nil || len(s) > 0 {
				samples = s
			}
		},
		func() {
			f := open(SnapshotFile)
			if f == nil {
				arts[3] = ingest.MissingArtifact(SnapshotFile)
				return
			}
			sn, h, err := ingest.IngestSnapshot(f, opts)
			f.Close()
			h.Name = SnapshotFile
			arts[3] = h
			if err == nil || len(sn.Devices) > 0 {
				snap = sn
			}
		},
	)
	health.Artifacts = append(health.Artifacts, arts[:]...)

	res.Events = events
	res.Jobs = jobs
	for _, r := range jobs {
		res.NodeHours += r.GPUCoreHours()
	}
	if samples != nil {
		rejoinAllocations(samples, jobs)
		res.Samples = samples
	}
	res.Snapshot = snap

	allMissing := true
	for _, a := range health.Artifacts {
		if !a.Missing {
			allMissing = false
			break
		}
	}
	if allMissing {
		return nil, health, fmt.Errorf("dataset: %s: no readable artifacts: %w", dir, ErrMissingArtifact)
	}

	finishLoad(res)
	return res, health, nil
}

// inferWindow derives the observation window from the data: the earliest
// job submission or event, truncated to its month, through the month
// boundary after the last job submission or event. Job end times are not
// consulted because jobs running at the end of the collection window end
// after it.
func inferWindow(res *sim.Result) (time.Time, time.Time) {
	var lo, hi time.Time
	touch := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if lo.IsZero() || t.Before(lo) {
			lo = t
		}
		if hi.IsZero() || t.After(hi) {
			hi = t
		}
	}
	for _, e := range res.Events {
		touch(e.Time)
	}
	for _, j := range res.Jobs {
		touch(j.Spec.Submit)
	}
	if lo.IsZero() {
		now := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
		return now, now.AddDate(0, 1, 0)
	}
	start := time.Date(lo.Year(), lo.Month(), 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(hi.Year(), hi.Month(), 1, 0, 0, 0, 0, time.UTC).AddDate(0, 1, 0)
	return start, end
}
