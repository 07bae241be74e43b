package sim

import (
	"math/rand"
	"slices"
	"time"

	"titanre/internal/console"
	"titanre/internal/faults"
	"titanre/internal/gpu"
	"titanre/internal/nvsmi"
	"titanre/internal/scheduler"
	"titanre/internal/topology"
	"titanre/internal/workload"
	"titanre/internal/xid"
)

// Result is the complete synthetic field dataset for one simulated
// production period.
type Result struct {
	Config Config
	// Events is the console log, time-ordered.
	Events []console.Event
	// Jobs is the batch job log (placement records, start-ordered).
	Jobs []scheduler.Record
	// Samples holds the per-job nvidia-smi snapshot measurements taken
	// during the sampling window at the end of the period.
	Samples []nvsmi.JobSample
	// Fleet is the final card population (InfoROM state, hot spares).
	Fleet *gpu.Fleet
	// Profiles maps card serials (1-based) to their inherent profiles.
	Profiles []faults.CardProfile
	// Users is the workload's user population.
	Users []workload.UserProfile
	// Snapshot is the machine-wide nvidia-smi sweep at the end of the
	// period.
	Snapshot nvsmi.Snapshot
	// NodeHours is the total scheduled node-hours over the period.
	NodeHours float64
	// TrueSBECount is ground-truth corrected-error volume (for
	// validating logging inconsistencies against what nvidia-smi saw).
	TrueSBECount int64
}

// maxDBEWeight caps per-card DBE weights; the DBE arrival process
// oversamples by this factor and thins per card, so swaps mid-run keep
// exact per-card rates. It must stay above the renormalized weight of a
// DBE-prone card.
const maxDBEWeight = 160.0

type itemKind int32

const (
	kindJobEnd itemKind = iota
	kindHardware
	kindEpoch
	kindJobStart
)

// item is one entry of the merged timeline. Items are ordered by the
// deterministic merge key (time, kind, stream, seq): stream is the
// fixed rank of the fault process (0 for job/epoch items), seq the
// position within that stream. The key is independent of goroutine
// scheduling, so the walk order — and therefore the dataset — is the
// same at any GOMAXPROCS.
type item struct {
	at     time.Time
	kind   itemKind
	stream int32
	seq    int32
	// jobIdx indexes Result.Jobs for job items.
	jobIdx int32
	// code and node describe hardware items.
	code xid.Code
	node topology.NodeID
}

func compareItems(a, b item) int {
	if c := a.at.Compare(b.at); c != 0 {
		return c
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	if a.stream != b.stream {
		return int(a.stream) - int(b.stream)
	}
	return int(a.seq) - int(b.seq)
}

// Run executes the simulation and returns the dataset.
//
// Generation is parallel but deterministic: the workload's per-user
// submission streams, every hardware fault process, and the per-job SBE
// accrual draws each run on their own derived RNG substream (see
// parallel.go), concurrently, and are combined by deterministic merges.
// Only the timeline walk — which mutates fleet state — is serial.
func Run(cfg Config) *Result {
	return run(cfg, func(f *gpu.Fleet) jobSampler { return nvsmi.NewJobSampler(f) })
}

// jobSampler is the per-job snapshot framework the walk drives:
// nvsmi.JobSampler, or a reference the tests hold it to.
type jobSampler interface {
	Begin(id console.JobID, nodes scheduler.Placement)
	Swapped(id console.JobID, n topology.NodeID, removed *gpu.Card)
	End(rec *scheduler.Record) nvsmi.JobSample
}

func run(cfg Config, newSampler func(*gpu.Fleet) jobSampler) *Result {
	res := &Result{Config: cfg}

	// 1. Workload and placement: the user population is drawn from one
	// stream, then each user's submission stream is generated
	// concurrently from its own substream; placement stays serial.
	gen := workload.NewGenerator(faults.DeriveRNG(cfg.Seed, streamUsers), cfg.Workload)
	res.Users = gen.Users()
	jobs := gen.GenerateJobs(cfg.Seed, cfg.Start, cfg.End)
	res.Jobs = scheduler.Schedule(jobs, cfg.Allocation)
	for _, r := range res.Jobs {
		res.NodeHours += r.GPUCoreHours()
	}

	// 2. Fleet and card profiles.
	rngProf := faults.DeriveRNG(cfg.Seed, streamProfiles)
	fleet := gpu.NewFleet(cfg.Spares)
	fleet.SwapThreshold = cfg.HotSpareThreshold
	res.Fleet = fleet
	res.Profiles = faults.AssignProfiles(rngProf, fleet.ManufacturedCount(), cfg.Profiles)
	for i := range res.Profiles {
		if res.Profiles[i].DBEWeight > maxDBEWeight {
			res.Profiles[i].DBEWeight = maxDBEWeight
		}
		if cfg.SBEBrokenCounterFraction > 0 && rngProf.Float64() < cfg.SBEBrokenCounterFraction {
			if c := fleet.CardBySerial(gpu.Serial(i + 1)); c != nil {
				c.SBECounterBroken = true
			}
		}
	}

	// 3. Hardware arrivals (each process on its own stream, generated
	// concurrently) merged with job boundaries and epoch markers.
	items := generateHardware(cfg)
	res.Events = make([]console.Event, 0, eventsBound(len(items), res.Jobs))
	items = slices.Grow(items, 2*len(res.Jobs)+1)
	for i, rec := range res.Jobs {
		items = append(items,
			item{at: rec.Start, kind: kindJobStart, jobIdx: int32(i)},
			item{at: rec.End, kind: kindJobEnd, jobIdx: int32(i)})
	}
	items = append(items, item{at: cfg.RetirementDriver, kind: kindEpoch})
	slices.SortFunc(items, compareItems)

	// 3b. SBE accrual pre-pass: per-job draws on per-job substreams,
	// computed concurrently, applied serially (in time order) by the
	// walk below.
	sbeDraws := drawAllSBEs(cfg, res.Jobs, sbeRatesByNode(cfg, fleet, res.Profiles))

	// 4. Timeline walk (serial: it mutates card and fleet state).
	w := &walker{
		cfg:      cfg,
		res:      res,
		fleet:    fleet,
		rng:      faults.DeriveRNG(cfg.Seed, streamWalk),
		sampler:  newSampler(fleet),
		active:   make([]int32, topology.TotalNodes),
		sbeDraws: sbeDraws,
		dbeW:     faults.DBEStructureWeights(),
	}
	for i := range w.active {
		w.active[i] = -1
	}
	w.sampleStart = cfg.End.Add(-cfg.SampleWindow)

	for _, it := range items {
		switch it.kind {
		case kindEpoch:
			fleet.EnableRetirement()
		case kindJobStart:
			w.jobStart(int(it.jobIdx))
		case kindJobEnd:
			w.jobEnd(int(it.jobIdx))
		case kindHardware:
			w.hardware(it.at, it.code, it.node)
		}
	}

	console.SortEvents(res.Events)
	res.Snapshot = nvsmi.Take(cfg.End, fleet)
	return res
}

// eventsBound sizes the walk's event slice from what is known before it,
// so appending never regrows and copies it: a buggy job's crash reports
// on every node it holds, and a hardware arrival is one event plus, on
// average, well under one cascade child or retirement — every node of a
// buggy job plus two a hardware arrival, and an eighth over. An
// undersized bound only means one more growth.
func eventsBound(hardware int, jobs []scheduler.Record) int {
	n := 2 * hardware
	for i := range jobs {
		if jobs[i].Spec.Buggy {
			n += jobs[i].Nodes.Len()
		}
	}
	return n + n/8
}

func thermalOrUniform(deltaDoubleF float64) []float64 {
	if deltaDoubleF > 0 {
		return faults.ThermalComputeWeights(deltaDoubleF)
	}
	return faults.UniformComputeWeights()
}

// walker carries the mutable state of the timeline walk.
type walker struct {
	cfg         Config
	res         *Result
	fleet       *gpu.Fleet
	rng         *rand.Rand
	sampler     jobSampler
	sampleStart time.Time
	// active[n] is the index into res.Jobs of the job running on node n,
	// or -1.
	active []int32
	// sbeDraws[i] is job i's pre-drawn SBE accrual, time-ordered.
	sbeDraws [][]sbeDraw
	dbeW     []float64
	// nodes is appCrash's scratch copy of a placement.
	nodes []topology.NodeID
}

func (w *walker) emit(e console.Event) {
	if e.Time.Before(w.cfg.Start) || !e.Time.Before(w.cfg.End) {
		return
	}
	w.res.Events = append(w.res.Events, e)
}

func (w *walker) jobAt(n topology.NodeID) console.JobID {
	if idx := w.active[n]; idx >= 0 {
		return w.res.Jobs[idx].ID
	}
	return 0
}

func (w *walker) jobStart(idx int) {
	rec := &w.res.Jobs[idx]
	for ri := range rec.Nodes.NumRuns() {
		for _, n := range rec.Nodes.Run(ri) {
			w.active[n] = int32(idx)
		}
	}
	if !rec.Start.Before(w.sampleStart) {
		w.sampler.Begin(rec.ID, rec.Nodes)
	}
}

func (w *walker) jobEnd(idx int) {
	rec := &w.res.Jobs[idx]
	w.applySBEs(idx)
	if rec.Spec.Buggy {
		w.appCrash(rec)
	}
	if !rec.Start.Before(w.sampleStart) {
		w.res.Samples = append(w.res.Samples, w.sampler.End(rec))
	}
	for ri := range rec.Nodes.NumRuns() {
		for _, n := range rec.Nodes.Run(ri) {
			if w.active[n] == int32(idx) {
				w.active[n] = -1
			}
		}
	}
}

// applySBEs replays the job's pre-drawn corrected single bit errors
// against the cards currently at its nodes, emitting page retirement
// records when the two-SBE rule fires. Draws are time-ordered (see
// drawJobSBEs), so a retirement can never precede its trigger.
func (w *walker) applySBEs(idx int) {
	for _, d := range w.sbeDraws[idx] {
		w.res.TrueSBECount++
		card := w.fleet.CardAt(d.node)
		if card == nil {
			continue
		}
		if card.RecordSBE(d.s, d.page) {
			w.emitRetirement(d.at, d.node, card, d.page)
		}
	}
	w.sbeDraws[idx] = nil
}

// emitRetirement writes the XID 63 (and occasionally 64) console records
// for a page retirement.
func (w *walker) emitRetirement(at time.Time, n topology.NodeID, card *gpu.Card, page int32) {
	ev := console.Event{
		Time:           at,
		Node:           n,
		Serial:         card.Serial,
		Code:           xid.ECCPageRetirement,
		Structure:      gpu.DeviceMemory,
		StructureValid: true,
		Page:           page,
		Job:            w.jobAt(n),
	}
	w.emit(ev)
	if w.rng.Float64() < w.cfg.Retirement64Prob {
		ev64 := ev
		ev64.Code = xid.ECCPageRetirementAlt
		ev64.Time = at.Add(time.Second)
		w.emit(ev64)
	}
}

// appCrash emits the application-error signature of a buggy job: one
// faulting node raises XID 13 (or 31), the error is reported on every
// node of the allocation within the propagation window, and driver
// follow-ons cascade on the faulting node.
func (w *walker) appCrash(rec *scheduler.Record) {
	crash := rec.End.Add(-w.cfg.PropagationWindow - time.Second)
	if crash.Before(rec.Start) {
		crash = rec.Start
	}
	code := xid.GPUMemoryPageFault
	if w.rng.Float64() < w.cfg.AppXID13Prob {
		code = xid.GraphicsEngineException
	}
	w.nodes = rec.Nodes.AppendTo(w.nodes[:0])
	faulting := w.nodes[w.rng.Intn(len(w.nodes))]
	for _, n := range w.nodes {
		at := crash
		if n != faulting {
			at = crash.Add(time.Duration(w.rng.Float64() * float64(w.cfg.PropagationWindow)))
		}
		var serial gpu.Serial
		if c := w.fleet.CardAt(n); c != nil {
			serial = c.Serial
		}
		w.emit(console.Event{
			Time: at, Node: n, Serial: serial, Code: code,
			Page: console.NoPage, Job: rec.ID,
		})
	}
	w.cascade(crash, faulting, code, rec.ID)
}

// cascade expands follow-on child events on the same node.
func (w *walker) cascade(at time.Time, n topology.NodeID, parent xid.Code, job console.JobID) {
	for _, child := range faults.Expand(w.rng, w.cfg.Cascades, parent) {
		var serial gpu.Serial
		if c := w.fleet.CardAt(n); c != nil {
			serial = c.Serial
		}
		w.emit(console.Event{
			Time: at.Add(child.Delay), Node: n, Serial: serial,
			Code: child.Code, Page: console.NoPage, Job: job,
		})
	}
}

// hardware applies one pre-generated hardware arrival.
func (w *walker) hardware(at time.Time, code xid.Code, n topology.NodeID) {
	card := w.fleet.CardAt(n)
	if card == nil {
		return
	}
	job := w.jobAt(n)

	switch code {
	case xid.DoubleBitError:
		// Thin by the per-card DBE weight (the process oversamples by
		// maxDBEWeight), so swaps keep per-card rates exact.
		prof := w.profileOf(card.Serial)
		if w.rng.Float64()*maxDBEWeight > prof.DBEWeight {
			return
		}
		s := gpu.Structure(faults.Categorical(w.rng, w.dbeW))
		page := console.NoPage
		if s == gpu.DeviceMemory {
			page = int32(w.rng.Intn(int(gpu.DevicePages)))
		}
		flushed := w.rng.Float64() < w.cfg.InfoROMFlushProb
		retired := card.RecordDBE(s, page, flushed)
		w.emit(console.Event{
			Time: at, Node: n, Serial: card.Serial, Code: code,
			Structure: s, StructureValid: true, Page: page, Job: job,
		})
		if retired {
			delay := w.cfg.RetireDelayMin
			if span := w.cfg.RetireDelayMax - w.cfg.RetireDelayMin; span > 0 {
				delay += time.Duration(w.rng.Int63n(int64(span)))
			}
			w.emitRetirement(at.Add(delay), n, card, page)
		}
		w.cascade(at, n, code, job)
		if removed := w.fleet.NoteDBE(n, at); removed != nil && job != 0 {
			w.sampler.Swapped(job, n, removed)
		}

	case xid.OffTheBus:
		w.emit(console.Event{
			Time: at, Node: n, Serial: card.Serial, Code: code,
			Page: console.NoPage, Job: job,
		})
		// Off-the-bus events are isolated (no cascade) and do not tend
		// to recur on the same card; the card is reseated/resoldered.

	default:
		w.emit(console.Event{
			Time: at, Node: n, Serial: card.Serial, Code: code,
			Page: console.NoPage, Job: job,
		})
		w.cascade(at, n, code, job)
	}
}

func (w *walker) profileOf(serial gpu.Serial) faults.CardProfile {
	idx := int(serial) - 1
	if idx >= 0 && idx < len(w.res.Profiles) {
		return w.res.Profiles[idx]
	}
	// Cards manufactured beyond the initial pool: unremarkable profile.
	return faults.CardProfile{DBEWeight: 1}
}
