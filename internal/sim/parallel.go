package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/console"
	"titanre/internal/faults"
	"titanre/internal/gpu"
	"titanre/internal/scheduler"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Deterministic parallelism.
//
// Every stochastic process in the simulation owns a random stream
// derived from (cfg.Seed, stream id) — see faults.DeriveRNG. Because no
// two processes share a stream, they can be generated concurrently in
// any order and still produce exactly the draws a serial run would.
// The pieces are then combined by deterministic merges (the item sort
// below, per-job draw lists applied by the serial timeline walk), so
// the dataset for a seed is byte-identical at any GOMAXPROCS.
//
// Stream-id layout. Ids only need to be distinct; the bases leave room
// so classes can never collide (driver codes are small ints, job
// indexes are bounded by the job count).
const (
	streamUsers    uint64 = 1 // user population (workload.NewGenerator)
	streamProfiles uint64 = 2 // card profiles + broken SBE counters
	streamWalk     uint64 = 3 // serial timeline walk (cascades, thinning, crashes)
	streamDBE      uint64 = 4 // double-bit-error arrival process
	streamOTB      uint64 = 5 // off-the-bus arrival process
	streamFaulty   uint64 = 6 // Observation 8 faulty-node process

	// streamDriverBase + xid code: one stream per driver-caused XID.
	streamDriverBase uint64 = 0x100
	// streamJobSBEBase + job index: per-job SBE accrual substreams.
	streamJobSBEBase uint64 = 0x1_0000_0000
)

// hwProcess is one pre-generated fault arrival process: a stream id for
// RNG derivation, a dense merge rank (the "stream" component of the
// deterministic merge key), and the code its arrivals carry.
type hwProcess struct {
	stream   uint64
	rank     int32
	code     xid.Code
	generate func(rng *rand.Rand) []faults.Arrival
}

// hardwareProcesses assembles the fault processes of the configuration
// in a fixed order: DBE, OTB, driver XIDs by ascending code, then the
// faulty node. The order fixes each process's merge rank.
func hardwareProcesses(cfg Config) []hwProcess {
	var procs []hwProcess
	add := func(stream uint64, code xid.Code, gen func(rng *rand.Rand) []faults.Arrival) {
		procs = append(procs, hwProcess{
			stream: stream, rank: int32(len(procs) + 1), code: code, generate: gen,
		})
	}

	dbeProc := &faults.NodeProcess{
		RatePerHour: cfg.DBERatePerHour * maxDBEWeight,
		Weights:     thermalOrUniform(cfg.DBEThermalDoubleF),
	}
	if cfg.InfantMortalityFactor > 1 && cfg.InfantMortalityHalfLife > 0 {
		dbeProc.Epochs = faults.DecayEpochs(cfg.Start, cfg.InfantMortalityFactor, cfg.InfantMortalityHalfLife)
	}
	add(streamDBE, xid.DoubleBitError, func(rng *rand.Rand) []faults.Arrival {
		return dbeProc.Generate(rng, cfg.Start, cfg.End)
	})

	if cfg.OTBRatePreFixPerHour > 0 {
		otbProc := &faults.NodeProcess{
			RatePerHour:   cfg.OTBRatePreFixPerHour,
			Weights:       thermalOrUniform(cfg.OTBThermalDoubleF),
			Cluster:       cfg.OTBCluster,
			ClusterSpread: cfg.OTBClusterSpread,
			Epochs: []faults.Epoch{{
				Start:  cfg.OTBFix,
				End:    cfg.End,
				Factor: cfg.OTBRatePostFixPerHour / cfg.OTBRatePreFixPerHour,
			}},
		}
		add(streamOTB, xid.OffTheBus, func(rng *rand.Rand) []faults.Arrival {
			return otbProc.Generate(rng, cfg.Start, cfg.End)
		})
	}

	// Driver-caused XIDs, in deterministic code order.
	var driverCodes []xid.Code
	for code := range cfg.DriverRates {
		driverCodes = append(driverCodes, code)
	}
	slices.Sort(driverCodes)
	for _, code := range driverCodes {
		rate := cfg.DriverRates[code]
		if rate <= 0 {
			continue
		}
		proc := &faults.NodeProcess{RatePerHour: rate, Weights: faults.UniformComputeWeights()}
		switch code {
		case xid.MicrocontrollerHaltOld:
			// Replaced by XID 62 at the driver upgrade.
			proc.Epochs = []faults.Epoch{{Start: cfg.DriverUpgrade, End: cfg.End, Factor: 0}}
		case xid.MicrocontrollerHaltNew:
			// Introduced by the driver upgrade; thermally sensitive.
			proc.Epochs = []faults.Epoch{{Start: cfg.Start, End: cfg.DriverUpgrade, Factor: 0}}
			proc.Weights = thermalOrUniform(10)
		}
		add(streamDriverBase+uint64(code), code, func(rng *rand.Rand) []faults.Arrival {
			return proc.Generate(rng, cfg.Start, cfg.End)
		})
	}

	// The misbehaving node of Observation 8: hardware trouble that
	// surfaces as XID 13 regardless of the application.
	if cfg.FaultyNode >= 0 && cfg.FaultyNodeRate > 0 {
		add(streamFaulty, xid.GraphicsEngineException, func(rng *rand.Rand) []faults.Arrival {
			fStart := cfg.FaultyNodeStart
			fEnd := fStart.Add(cfg.FaultyNodeDuration)
			if fEnd.After(cfg.End) {
				fEnd = cfg.End
			}
			var out []faults.Arrival
			t := fStart
			for {
				t = t.Add(time.Duration(faults.Exponential(rng, cfg.FaultyNodeRate) * float64(time.Hour)))
				if !t.Before(fEnd) {
					break
				}
				out = append(out, faults.Arrival{Time: t, Node: topology.NodeID(cfg.FaultyNode)})
			}
			return out
		})
	}
	return procs
}

// generateHardware runs every fault process concurrently on its own
// derived stream and returns the arrivals as merge-ready items.
func generateHardware(cfg Config) []item {
	procs := hardwareProcesses(cfg)
	arrivals := make([][]faults.Arrival, len(procs))
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrivals[i] = procs[i].generate(faults.DeriveRNG(cfg.Seed, procs[i].stream))
		}(i)
	}
	wg.Wait()

	total := 0
	for _, as := range arrivals {
		total += len(as)
	}
	items := make([]item, 0, total)
	for i, as := range arrivals {
		for seq, a := range as {
			items = append(items, item{
				at: a.Time, kind: kindHardware, stream: procs[i].rank, seq: int32(seq),
				code: procs[i].code, node: a.Node,
			})
		}
	}
	return items
}

// sbeDraw is one pre-drawn corrected single bit error: where and when it
// strikes and what it hits. Draw lists are applied to card state by the
// serial walk, in time order.
type sbeDraw struct {
	at   time.Time
	node topology.NodeID
	s    gpu.Structure
	page int32
}

// sbeRatesByNode folds card profile and thermal acceleration into one
// effective SBE rate per node, evaluated against the initial card
// placement. Hot-spare swaps are rare enough (tens of cards out of
// 18,688 over 21 months) that re-evaluating the rate after a swap is
// deliberately not modeled; the swapped-in card still accrues the
// counters (see walker.applySBEs).
func sbeRatesByNode(cfg Config, fleet *gpu.Fleet, profiles []faults.CardProfile) []float64 {
	rates := make([]float64, topology.TotalNodes)
	for n := range rates {
		card := fleet.CardAt(topology.NodeID(n))
		if card == nil {
			continue
		}
		idx := int(card.Serial) - 1
		if idx < 0 || idx >= len(profiles) {
			continue
		}
		rate := profiles[idx].SBERatePerActiveHour
		if rate <= 0 {
			continue
		}
		if cfg.SBEThermalDoubleF > 0 {
			rate *= topology.ThermalAcceleration(topology.NodeID(n), cfg.SBEThermalDoubleF)
		}
		rates[n] = rate
	}
	return rates
}

// drawJobSBEs draws one job's corrected-error accrual from the job's own
// derived substream. The draws are returned sorted by time so applying
// them can never emit a page-retirement record timestamped before the
// SBE that triggered it (the two-SBE rule fires on the later of the two
// errors).
func drawJobSBEs(seed int64, jobIdx int, rec *scheduler.Record, end time.Time, rates, sbeW []float64) []sbeDraw {
	spanEnd := rec.End
	if spanEnd.After(end) {
		spanEnd = end
	}
	hours := spanEnd.Sub(rec.Start).Hours()
	if hours <= 0 {
		return nil
	}
	var rng *rand.Rand
	var draws []sbeDraw
	for ri := range rec.Nodes.NumRuns() {
		for _, n := range rec.Nodes.Run(ri) {
			rate := rates[n]
			if rate <= 0 {
				continue
			}
			if rng == nil {
				rng = faults.DeriveRNG(seed, streamJobSBEBase+uint64(jobIdx))
			}
			count := faults.Poisson(rng, rate*hours)
			for k := int64(0); k < count; k++ {
				at := rec.Start.Add(time.Duration(rng.Float64() * float64(spanEnd.Sub(rec.Start))))
				s := gpu.Structure(faults.Categorical(rng, sbeW))
				page := console.NoPage
				if s == gpu.DeviceMemory {
					page = int32(rng.Intn(int(gpu.DevicePages)))
				}
				draws = append(draws, sbeDraw{at: at, node: n, s: s, page: page})
			}
		}
	}
	slices.SortStableFunc(draws, func(a, b sbeDraw) int { return a.at.Compare(b.at) })
	return draws
}

// drawAllSBEs runs the per-job SBE pre-pass over a bounded worker pool.
// Jobs are independent (each has its own substream), so the result is
// identical at any GOMAXPROCS.
func drawAllSBEs(cfg Config, jobs []scheduler.Record, rates []float64) [][]sbeDraw {
	draws := make([][]sbeDraw, len(jobs))
	sbeW := faults.SBEStructureWeights()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < poolWorkers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				draws[i] = drawJobSBEs(cfg.Seed, i, &jobs[i], cfg.End, rates, sbeW)
			}
		}()
	}
	wg.Wait()
	return draws
}

// poolWorkers bounds a worker pool to the available parallelism.
func poolWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
