package titanre

// The benchmark harness regenerates every table and figure of the paper.
// Each benchmark times the analysis that produces its figure and, on
// first execution, prints the same rows/series the paper reports next to
// the paper's own numbers, so `go test -bench=.` doubles as the
// experiment log (see EXPERIMENTS.md).

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"titanre/internal/analysis"
	"titanre/internal/checkpoint"
	"titanre/internal/core"
	"titanre/internal/filtering"
	"titanre/internal/inject"
	"titanre/internal/predict"
	"titanre/internal/scheduler"
	"titanre/internal/sim"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

func study() *Study {
	benchOnce.Do(func() {
		benchStudy = NewStudy(DefaultConfig())
	})
	return benchStudy
}

// show prints a figure's headline once per process.
var shown sync.Map

func show(key, format string, args ...interface{}) {
	if _, loaded := shown.LoadOrStore(key, true); loaded {
		return
	}
	fmt.Fprintf(os.Stdout, "\n["+key+"] "+format+"\n", args...)
}

func BenchmarkTable1HardwareCatalog(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(HardwareErrorTable())
	}
	show("Table1", "hardware error classes: %d (paper: 8 rows; XIDs 63 and 64 share one row there)", n)
}

func BenchmarkTable2SoftwareCatalog(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(SoftwareErrorTable())
	}
	show("Table2", "software/firmware error classes: %d (paper: 12 rows)", n)
}

func BenchmarkFig1Topology(b *testing.B) {
	var last topology.NodeID
	for i := 0; i < b.N; i++ {
		for n := topology.NodeID(0); n < topology.TotalNodes; n += 97 {
			last = topology.NodeAtTorusIndex(topology.TorusIndex(n))
		}
	}
	_ = last
	show("Fig1", "topology: %d cabinets (%dx%d floor), %d nodes/cabinet, %d compute GPUs (paper: 200, 25x8, 96, 18688)",
		topology.Cabinets, topology.Rows, topology.Columns, topology.NodesPerCabinet, topology.TotalComputeGPUs)
}

func BenchmarkFig2MonthlyDBE(b *testing.B) {
	s := study()
	b.ResetTimer()
	var months []analysis.MonthCount
	for i := 0; i < b.N; i++ {
		months = s.Fig2MonthlyDBE()
	}
	total := 0
	for _, m := range months {
		total += m.Count
	}
	mtbf, _ := s.DBEMTBF()
	show("Fig2", "DBEs %d over %d months, MTBF %.0f h (paper: ~1 per week, ~160 h)", total, len(months), mtbf.Hours())
}

func BenchmarkFig3aDBESpatial(b *testing.B) {
	s := study()
	b.ResetTimer()
	var g Grid
	for i := 0; i < b.N; i++ {
		g = s.Fig3aDBESpatial()
	}
	show("Fig3a", "DBE floor map: total %d, hottest cabinet %d (paper: uneven, DBEs are rare events)", g.Total(), g.Max())
}

func BenchmarkFig3bDBECage(b *testing.B) {
	s := study()
	b.ResetTimer()
	var cc analysis.CageCounts
	for i := 0; i < b.N; i++ {
		cc = s.Fig3bDBECages()
	}
	show("Fig3b", "DBE by cage bottom..top %v, distinct cards %v (paper: upper cages dominate)", cc.All, cc.Distinct)
}

func BenchmarkFig3cDBEStructure(b *testing.B) {
	s := study()
	b.ResetTimer()
	var m map[Structure]int
	for i := 0; i < b.N; i++ {
		m = s.Fig3cDBEStructures()
	}
	total := 0
	for _, c := range m {
		total += c
	}
	show("Fig3c", "DBE structures: device memory %.0f%%, register file %.0f%% (paper: 86%% / 14%%)",
		pctOf(m[0], total), pctOf(m[2], total))
}

func pctOf(a, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(a) / float64(total)
}

func BenchmarkFig4OTBMonthly(b *testing.B) {
	s := study()
	b.ResetTimer()
	var months []analysis.MonthCount
	for i := 0; i < b.N; i++ {
		months = s.Fig4MonthlyOTB()
	}
	var pre, post int
	for _, m := range months {
		if time.Date(m.Year, m.Month, 1, 0, 0, 0, 0, time.UTC).Before(s.Config.OTBFix) {
			pre += m.Count
		} else {
			post += m.Count
		}
	}
	show("Fig4", "off-the-bus: %d before the Dec'13 soldering fix, %d after (paper: dominant before, negligible after)", pre, post)
}

func BenchmarkFig5OTBSpatial(b *testing.B) {
	s := study()
	b.ResetTimer()
	var cc analysis.CageCounts
	for i := 0; i < b.N; i++ {
		_, cc = s.Fig5OTBSpatial()
	}
	show("Fig5", "OTB by cage bottom..top %v (paper: strong temperature sensitivity, upper cages hit more)", cc.All)
}

func BenchmarkFig6RetirementMonthly(b *testing.B) {
	s := study()
	b.ResetTimer()
	var months []analysis.MonthCount
	for i := 0; i < b.N; i++ {
		months = s.Fig6MonthlyRetirement()
	}
	first := ""
	total := 0
	for _, m := range months {
		total += m.Count
		if first == "" && m.Count > 0 {
			first = m.Label()
		}
	}
	show("Fig6", "page retirements: %d total, first in %s (paper: appears only since Jan'14)", total, first)
}

func BenchmarkFig7RetirementSpatial(b *testing.B) {
	s := study()
	b.ResetTimer()
	var cc analysis.CageCounts
	for i := 0; i < b.N; i++ {
		_, cc = s.Fig7RetirementSpatial()
	}
	show("Fig7", "retirement by cage bottom..top %v (paper: upper cages slightly more likely)", cc.All)
}

func BenchmarkFig8RetirementDelay(b *testing.B) {
	s := study()
	b.ResetTimer()
	var rt analysis.RetirementTiming
	for i := 0; i < b.N; i++ {
		rt = s.Fig8RetirementTiming()
	}
	show("Fig8", "retirement after DBE: <=10min %d, 10min-6h %d, >6h %d, DBE pairs w/o retirement %d (paper: 18 / 1 / 18 / 17)",
		rt.Within10Min, rt.TenMinTo6h, rt.Beyond6h, rt.DBEPairsWithoutRetirement)
}

func BenchmarkFig9DriverXIDs(b *testing.B) {
	s := study()
	b.ResetTimer()
	var m map[xid.Code][]analysis.MonthCount
	for i := 0; i < b.N; i++ {
		m = s.Fig9DriverXIDMonthly()
	}
	totals := map[xid.Code]int{}
	for code, months := range m {
		for _, mo := range months {
			totals[code] += mo.Count
		}
	}
	show("Fig9", "incidents: XID31 %d, XID32 %d, XID43 %d, XID44 %d (paper: 32 under ten; 43/44 more frequent)",
		totals[31], totals[32], totals[43], totals[44])
}

func BenchmarkFig10XID13(b *testing.B) {
	s := study()
	b.ResetTimer()
	var burst float64
	var daily []int
	for i := 0; i < b.N; i++ {
		daily, burst = s.Fig10XID13Daily()
	}
	total := 0
	for _, d := range daily {
		total += d
	}
	show("Fig10", "XID 13 incidents: %d, burstiness index %.1f (paper: bursty, deadline-driven)", total, burst)
}

func BenchmarkFig11MicrocontrollerHalt(b *testing.B) {
	s := study()
	b.ResetTimer()
	var old59, new62 []analysis.MonthCount
	for i := 0; i < b.N; i++ {
		old59, new62 = s.Fig11MicrocontrollerHalts()
	}
	sum := func(ms []analysis.MonthCount) int {
		t := 0
		for _, m := range ms {
			t += m.Count
		}
		return t
	}
	show("Fig11", "XID 59 %d (pre-upgrade), XID 62 %d (post-upgrade) (paper: 59 on old driver, 62 on new)",
		sum(old59), sum(new62))
}

func BenchmarkFig12XID13Filtering(b *testing.B) {
	s := study()
	b.ResetTimer()
	var all, filtered, children Grid
	for i := 0; i < b.N; i++ {
		all, filtered, children = s.Fig12XID13Filtering()
	}
	alt := analysis.FootprintAlternation(s.Result.Jobs)
	show("Fig12", "XID 13 events: %d raw -> %d incidents (5s filter), %d children; footprint column gap %.2f (paper: alternate cabinets denser; 5s covers the whole job)",
		all.Total(), filtered.Total(), children.Total(), alt)
}

func BenchmarkFig13Heatmap(b *testing.B) {
	s := study()
	b.ResetTimer()
	var withSame [][]float64
	var codes []xid.Code
	for i := 0; i < b.N; i++ {
		withSame, _, codes = s.Fig13Heatmaps()
	}
	idx := map[xid.Code]int{}
	for i, c := range codes {
		idx[c] = i
	}
	show("Fig13", "P(45|48)=%.2f P(63|48)=%.2f P(43|13)=%.2f diag(13)=%.2f diag(48)=%.2f (paper: 48->45/63, 13->43; 48 isolated, 13 repeats)",
		withSame[idx[48]][idx[45]], withSame[idx[48]][idx[63]], withSame[idx[13]][idx[43]],
		withSame[idx[13]][idx[13]], withSame[idx[48]][idx[48]])
}

func BenchmarkFig14SBESpatial(b *testing.B) {
	s := study()
	b.ResetTimer()
	var sk analysis.SBESkew
	for i := 0; i < b.N; i++ {
		sk = s.Fig14SBESkew()
	}
	show("Fig14", "SBE skew: %.1f%% of cards affected; top-10 carry %.0f%%, top-50 %.0f%%; homogeneity CV %.2f -> %.2f after top-50 (paper: <5%%, near-homogeneous after top-50)",
		100*sk.AffectedFraction, 100*sk.Top10Share, 100*sk.Top50Share,
		analysis.HomogeneityScore(sk.All), analysis.HomogeneityScore(sk.WithoutTop50))
}

func BenchmarkFig15SBECage(b *testing.B) {
	s := study()
	b.ResetTimer()
	var ca analysis.SBECageAnalysis
	for i := 0; i < b.N; i++ {
		ca = s.Fig15SBECages()
	}
	show("Fig15", "SBE by cage bottom..top: all %v, distinct cards %v (paper: distinct cards spread evenly; proneness is card-inherent)",
		ca.All.All, ca.All.Distinct)
}

func benchCorrelation(b *testing.B, metric analysis.MetricKind, key, paper string) {
	s := study()
	b.ResetTimer()
	var ucs []analysis.UtilizationCorrelation
	for i := 0; i < b.N; i++ {
		ucs = s.Fig16to19Correlations()
	}
	uc := ucs[int(metric)]
	show(key, "%v: Spearman %.2f (all) -> %.2f (excl top-10), Pearson %.2f; %s",
		uc.Metric, uc.AllSpearman.Coefficient, uc.ExclSpearman.Coefficient, uc.AllPearson.Coefficient, paper)
}

func BenchmarkFig16SBEvsMaxMem(b *testing.B) {
	benchCorrelation(b, analysis.MaxMemory, "Fig16", "(paper: weak, < 0.5)")
}

func BenchmarkFig17SBEvsTotalMem(b *testing.B) {
	benchCorrelation(b, analysis.TotalMemory, "Fig17", "(paper: weak, < 0.5)")
}

func BenchmarkFig18SBEvsNodes(b *testing.B) {
	benchCorrelation(b, analysis.NodeCount, "Fig18", "(paper: ~0.57, weakens excluding offenders)")
}

func BenchmarkFig19SBEvsCoreHours(b *testing.B) {
	benchCorrelation(b, analysis.CoreHours, "Fig19", "(paper: ~0.70, weakens excluding offenders)")
}

func BenchmarkFig20SBEByUser(b *testing.B) {
	s := study()
	b.ResetTimer()
	var uc analysis.UserCorrelation
	for i := 0; i < b.N; i++ {
		uc = s.Fig20UserCorrelation()
	}
	show("Fig20", "per-user Spearman %.2f (all), %.2f (excl top-10) over %d users (paper: ~0.80, improves excluding offenders)",
		uc.AllSpearman.Coefficient, uc.ExclSpearman.Coefficient, uc.Users)
}

func BenchmarkFig21Workload(b *testing.B) {
	s := study()
	b.ResetTimer()
	var wc analysis.WorkloadCharacteristics
	for i := 0; i < b.N; i++ {
		wc = s.Fig21Workload()
	}
	show("Fig21", "top-mem jobs below avg core-hours: %v; small job among longest: %v; nodes~core-hours rho %.2f (paper: Observation 14)",
		wc.TopMemJobsBelowAvgCoreHours, wc.SmallJobAmongLongest, wc.NodesCoreHoursSpearman)
}

func BenchmarkObservationChecks(b *testing.B) {
	s := study()
	b.ResetTimer()
	var checks []ObservationCheck
	for i := 0; i < b.N; i++ {
		checks = s.CheckObservations()
	}
	pass := 0
	for _, oc := range checks {
		if oc.Pass {
			pass++
		}
	}
	show("Observations", "%d of %d observations reproduced", pass, len(checks))
}

// ---- Ablations ----

func ablationCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.End = cfg.Start.AddDate(0, 5, 0)
	cfg.OTBFix = cfg.End
	cfg.Workload.Users = 120
	return cfg
}

func BenchmarkAblationFilterWindow(b *testing.B) {
	s := study()
	ev := s.EventsOf(13)
	b.ResetTimer()
	var n0, n5, n300 int
	for i := 0; i < b.N; i++ {
		n0 = len(filtering.TimeThreshold(ev, 0))
		n5 = len(filtering.TimeThreshold(ev, 5*time.Second))
		n300 = len(filtering.TimeThreshold(ev, 300*time.Second))
	}
	show("AblationFilter", "XID 13 count under windows 0s/5s/300s: %d / %d / %d (filtering changes apparent counts by orders of magnitude)", n0, n5, n300)
}

func BenchmarkAblationAllocation(b *testing.B) {
	var gapTorus, gapLinear, hopsTorus, hopsLinear float64
	for i := 0; i < b.N; i++ {
		torus := sim.Run(ablationCfg(21))
		cfgL := ablationCfg(21)
		cfgL.Allocation = scheduler.LinearFit
		linear := sim.Run(cfgL)
		gapTorus = analysis.FootprintAlternation(torus.Jobs)
		gapLinear = analysis.FootprintAlternation(linear.Jobs)
		hopsTorus = analysis.NetworkCompactness(torus.Jobs[:min(len(torus.Jobs), 2000)])
		hopsLinear = analysis.NetworkCompactness(linear.Jobs[:min(len(linear.Jobs), 2000)])
	}
	show("AblationAllocation", "footprint column gap: folded torus %.2f vs linear %.2f; mean Gemini hops within a job: %.1f vs %.1f (torus gives the alternating-cabinet pattern AND network compactness)", gapTorus, gapLinear, hopsTorus, hopsLinear)
}

func BenchmarkAblationThermal(b *testing.B) {
	var withT, withoutT analysis.CageCounts
	for i := 0; i < b.N; i++ {
		on := core.New(ablationCfg(22))
		cfgOff := ablationCfg(22)
		cfgOff.OTBThermalDoubleF = 0
		cfgOff.DBEThermalDoubleF = 0
		off := core.New(cfgOff)
		_, withT = on.Fig5OTBSpatial()
		_, withoutT = off.Fig5OTBSpatial()
	}
	show("AblationThermal", "OTB cages bottom..top with thermal %v, without %v (gradient disappears)", withT.All, withoutT.All)
}

func BenchmarkAblationCardSkew(b *testing.B) {
	var withSkew, withoutSkew float64
	for i := 0; i < b.N; i++ {
		on := core.New(ablationCfg(23))
		cfgOff := ablationCfg(23)
		cfgOff.Profiles.SusceptibleFraction = 1
		cfgOff.Profiles.SBELogSigma = 0.1
		cfgOff.Profiles.SBELogMu = -8.5
		off := core.New(cfgOff)
		withSkew = on.Fig14SBESkew().Top10Share
		withoutSkew = off.Fig14SBESkew().Top10Share
	}
	show("AblationSkew", "top-10 SBE share: skewed cards %.0f%% vs uniform cards %.0f%%", 100*withSkew, 100*withoutSkew)
}

func BenchmarkAblationHotSpare(b *testing.B) {
	var pulledOn, pulledOff int
	var repeatOn, repeatOff int
	for i := 0; i < b.N; i++ {
		cfgOn := ablationCfg(24)
		cfgOn.HotSpareThreshold = 1
		on := sim.Run(cfgOn)
		cfgOff := ablationCfg(24)
		cfgOff.HotSpareThreshold = 0
		off := sim.Run(cfgOff)
		pulledOn = len(on.Fleet.HotSpareCluster())
		pulledOff = len(off.Fleet.HotSpareCluster())
		repeatOn = repeatDBECards(on)
		repeatOff = repeatDBECards(off)
	}
	show("AblationHotSpare", "cards pulled: %d vs %d; cards with repeat DBEs: %d (policy on) vs %d (off)",
		pulledOn, pulledOff, repeatOn, repeatOff)
}

func repeatDBECards(res *sim.Result) int {
	perCard := map[uint32]int{}
	for _, e := range res.Events {
		if e.Code == xid.DoubleBitError {
			perCard[uint32(e.Serial)]++
		}
	}
	n := 0
	for _, c := range perCard {
		if c > 1 {
			n++
		}
	}
	return n
}

// ---- Extension benches ----

func BenchmarkPredictorTrain(b *testing.B) {
	s := study()
	incidents := filtering.TimeThreshold(s.Events(), 5*time.Second)
	b.ResetTimer()
	var rules int
	for i := 0; i < b.N; i++ {
		m := predict.Train(incidents, predict.DefaultConfig())
		rules = len(m.Rules())
	}
	show("PredictorTrain", "learned %d precursor rules from %d incidents (48->45, 13->43 expected)", rules, len(incidents))
}

func BenchmarkPredictorEvaluate(b *testing.B) {
	s := study()
	incidents := filtering.TimeThreshold(s.Events(), 5*time.Second)
	train, test := predict.SplitByTime(incidents, 0.5)
	m := predict.Train(train, predict.DefaultConfig())
	b.ResetTimer()
	var ev predict.Evaluation
	for i := 0; i < b.N; i++ {
		ev = m.Evaluate(test)
	}
	show("PredictorEval", "held-out precision %.2f, recall %.2f, mean lead %v over %d targets",
		ev.Precision(), ev.Recall(), ev.MeanLead.Round(time.Second), ev.TargetEvents)
}

func BenchmarkCheckpointTraceSim(b *testing.B) {
	s := study()
	var trace []time.Duration
	for _, info := range HardwareErrorTable() {
		if !info.CrashesApp {
			continue
		}
		for _, e := range s.EventsOf(info.Code) {
			trace = append(trace, e.Time.Sub(s.Config.Start))
		}
	}
	mtbf, _ := s.DBEMTBF()
	iv := checkpoint.YoungInterval(mtbf, 10*time.Minute)
	b.ResetTimer()
	var st checkpoint.RunStats
	for i := 0; i < b.N; i++ {
		var err error
		st, err = checkpoint.Simulate(336*time.Hour, iv, 10*time.Minute, 15*time.Minute, trace)
		if err != nil {
			b.Fatal(err)
		}
	}
	show("CheckpointSim", "full-machine 336 h campaign at Young interval %v: efficiency %.1f%%, %d failures survived",
		iv.Round(time.Minute), 100*st.Efficiency, st.Failures)
}

func BenchmarkAblationAcceptanceTesting(b *testing.B) {
	var withTests, withoutTests []analysis.MonthCount
	for i := 0; i < b.N; i++ {
		base := ablationCfg(25)
		on := core.New(base)
		noAccept := ablationCfg(25)
		noAccept.InfantMortalityFactor = 8
		noAccept.InfantMortalityHalfLife = 21 * 24 * time.Hour
		off := core.New(noAccept)
		withTests = on.Fig2MonthlyDBE()
		withoutTests = off.Fig2MonthlyDBE()
	}
	first := func(ms []analysis.MonthCount) int {
		if len(ms) == 0 {
			return 0
		}
		return ms[0].Count
	}
	show("AblationAcceptance", "first-month DBEs: %d with acceptance testing vs %d without (Obs 1: early stress tests weed out bad GPUs)",
		first(withTests), first(withoutTests))
}

func BenchmarkExascaleProjection(b *testing.B) {
	s := study()
	var fatal int
	for _, info := range HardwareErrorTable() {
		if info.CrashesApp {
			fatal += len(s.EventsOf(info.Code))
		}
	}
	hours := s.Config.End.Sub(s.Config.Start).Hours()
	perGPU := float64(fatal) / hours / float64(topology.TotalComputeGPUs)
	b.ResetTimer()
	var titan, exa, exaImproved checkpoint.Projection
	for i := 0; i < b.N; i++ {
		titan = checkpoint.Project(perGPU, topology.TotalComputeGPUs, 10*time.Minute)
		exa = checkpoint.Project(perGPU, 100000, 10*time.Minute)
		scale := checkpoint.RateScaleAfterImprovement(s.Fig3cDBEStructures(),
			map[Structure]float64{2: 10}) // 10x better register file (Obs 3)
		exaImproved = checkpoint.Project(perGPU*scale, 100000, 10*time.Minute)
	}
	show("Projection", "fatal MTBF: Titan %.0f h -> 100k-GPU system %.1f h (ckpt overhead %.0f%% -> %.0f%%); with 10x register-file resilience: %.1f h (Obs 3's exascale argument)",
		titan.SystemMTBF.Hours(), exa.SystemMTBF.Hours(), 100*titan.Overhead, 100*exa.Overhead, exaImproved.SystemMTBF.Hours())
}

func BenchmarkAVFCampaign(b *testing.B) {
	k := inject.MatMul(8)
	var pipeAVF, memSDCOff float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(42))
		on, err := inject.Campaign(rng, k, 500, inject.ECCOn, 0.03)
		if err != nil {
			b.Fatal(err)
		}
		off, err := inject.Campaign(rng, k, 500, inject.ECCOff, 0.03)
		if err != nil {
			b.Fatal(err)
		}
		pipeAVF = on[int(inject.PipelineTarget)].AVF()
		memSDCOff = off[int(inject.MemoryTarget)].Rate(inject.SDC)
	}
	show("AVF", "pipeline AVF %.0f%% with ECC on (unprotected logic leaks past ECC); device-memory SDC %.0f%% with ECC off (paper Sec 2.1, Haque&Pande)",
		100*pipeAVF, 100*memSDCOff)
}

// BenchmarkSimulationFullPeriod is check.sh's full-horizon smoke; the
// wall clock of simulate, index and render is bench/'s (sim.run_s,
// core.index_ms, core.report_render_ms).
func BenchmarkSimulationFullPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Seed = int64(i + 1)
		res := sim.Run(cfg)
		if len(res.Events) == 0 {
			b.Fatal("empty dataset")
		}
	}
}
