package analysis

import (
	"math"
	"strconv"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/nvsmi"
	"titanre/internal/scheduler"
	"titanre/internal/topology"
	"titanre/internal/workload"
	"titanre/internal/xid"
)

var t0 = time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)

func evAt(t time.Time, code xid.Code, node topology.NodeID, serial gpu.Serial) console.Event {
	return console.Event{Time: t, Code: code, Node: node, Serial: serial, Page: console.NoPage}
}

func TestMonthlyCounts(t *testing.T) {
	end := time.Date(2013, 9, 1, 0, 0, 0, 0, time.UTC)
	events := []console.Event{
		evAt(t0.Add(time.Hour), 48, 0, 1),
		evAt(t0.AddDate(0, 0, 20), 48, 1, 2),
		evAt(t0.AddDate(0, 2, 3), 48, 2, 3),
		evAt(end.Add(time.Hour), 48, 3, 4), // outside window
	}
	mc := MonthlyCounts(events, t0, end)
	if len(mc) != 3 {
		t.Fatalf("months = %d, want 3", len(mc))
	}
	if mc[0].Count != 2 || mc[1].Count != 0 || mc[2].Count != 1 {
		t.Errorf("counts = %v", mc)
	}
	if mc[0].Label() != "2013-06" {
		t.Errorf("label = %q", mc[0].Label())
	}
}

func TestDailyCountsAndBurstiness(t *testing.T) {
	end := t0.AddDate(0, 0, 10)
	var calm, bursty []console.Event
	for d := 0; d < 10; d++ {
		calm = append(calm, evAt(t0.AddDate(0, 0, d), 13, 0, 1))
	}
	for i := 0; i < 10; i++ {
		bursty = append(bursty, evAt(t0.Add(time.Duration(i)*time.Minute), 13, 0, 1))
	}
	dc := DailyCounts(calm, t0, end)
	if len(dc) != 10 {
		t.Fatalf("days = %d", len(dc))
	}
	if BurstinessIndex(DailyCounts(bursty, t0, end)) <= BurstinessIndex(dc) {
		t.Error("bursty series must score higher dispersion")
	}
	if DailyCounts(nil, end, t0) != nil {
		t.Error("inverted window should be nil")
	}
	if BurstinessIndex(nil) != 0 || BurstinessIndex([]int{0, 0}) != 0 {
		t.Error("degenerate burstiness should be 0")
	}
}

func TestDailyCountsPartialDay(t *testing.T) {
	// A window of 2 days + 6 hours must produce 3 buckets; an event in
	// the trailing partial day used to be silently dropped.
	end := t0.Add(54 * time.Hour)
	events := []console.Event{
		evAt(t0.Add(time.Hour), 13, 0, 1),
		evAt(t0.Add(50*time.Hour), 13, 0, 1), // inside the partial day
	}
	dc := DailyCounts(events, t0, end)
	if len(dc) != 3 {
		t.Fatalf("days = %d, want 3 (2 whole + 1 partial)", len(dc))
	}
	if dc[0] != 1 || dc[1] != 0 || dc[2] != 1 {
		t.Errorf("counts = %v, want [1 0 1]", dc)
	}
	if total := dc[0] + dc[1] + dc[2]; total != len(events) {
		t.Errorf("events dropped: counted %d of %d", total, len(events))
	}
	// A sub-day window is one bucket, not zero.
	if dc := DailyCounts(events[:1], t0, t0.Add(6*time.Hour)); len(dc) != 1 || dc[0] != 1 {
		t.Errorf("sub-day window = %v, want [1]", dc)
	}
}

func TestMTBFOf(t *testing.T) {
	end := t0.Add(1600 * time.Hour)
	var events []console.Event
	for i := 0; i < 10; i++ {
		events = append(events, evAt(t0.Add(time.Duration(i)*160*time.Hour), 48, 0, 1))
	}
	m, err := MTBFOf(events, t0, end)
	if err != nil || m != 160*time.Hour {
		t.Errorf("MTBF = %v, %v", m, err)
	}
}

func TestSpatialMapAndGrid(t *testing.T) {
	events := []console.Event{
		evAt(t0, 48, topology.Location{Row: 0, Column: 0}.ID(), 1),
		evAt(t0, 48, topology.Location{Row: 0, Column: 0, Blade: 3}.ID(), 2),
		evAt(t0, 48, topology.Location{Row: 4, Column: 7}.ID(), 3),
	}
	g := SpatialMap(events)
	if g[0][0] != 2 || g[4][7] != 1 {
		t.Errorf("grid wrong: %d %d", g[0][0], g[4][7])
	}
	if g.Total() != 3 || g.Max() != 2 {
		t.Errorf("total=%d max=%d", g.Total(), g.Max())
	}
	cols := g.ColumnTotals()
	if cols[0] != 2 || cols[7] != 1 {
		t.Errorf("column totals = %v", cols)
	}
}

func TestAlternationScore(t *testing.T) {
	var alternating, flat Grid
	for r := 0; r < topology.Rows; r++ {
		for c := 0; c < topology.Columns; c++ {
			flat[r][c] = 10
			if c%2 == 0 {
				alternating[r][c] = 20
			}
		}
	}
	if s := flat.AlternationScore(); s != 0 {
		t.Errorf("flat score = %v, want 0", s)
	}
	if s := alternating.AlternationScore(); s < 1 {
		t.Errorf("alternating score = %v, want >= 1", s)
	}
	var zero Grid
	if zero.AlternationScore() != 0 {
		t.Error("empty grid score should be 0")
	}
}

func TestCageDistribution(t *testing.T) {
	mkNode := func(cage int) topology.NodeID {
		return topology.Location{Row: 1, Column: 1, Cage: cage}.ID()
	}
	events := []console.Event{
		evAt(t0, 48, mkNode(2), 1),
		evAt(t0, 48, mkNode(2), 1), // same card again
		evAt(t0, 48, mkNode(0), 2),
	}
	cc := CageDistribution(events)
	if cc.All[2] != 2 || cc.All[0] != 1 {
		t.Errorf("all = %v", cc.All)
	}
	if cc.Distinct[2] != 1 || cc.Distinct[0] != 1 {
		t.Errorf("distinct = %v", cc.Distinct)
	}
	if !cc.TopHeavier() {
		t.Error("top cage should dominate here")
	}
}

func TestCageFromNodeCounts(t *testing.T) {
	counts := map[topology.NodeID]int64{
		topology.Location{Cage: 0}.ID():           5,
		topology.Location{Cage: 1, Blade: 1}.ID(): 3,
		topology.Location{Cage: 1, Blade: 2}.ID(): 0, // zero must not count
	}
	cc := CageFromNodeCounts(counts)
	if cc.All[0] != 5 || cc.All[1] != 3 {
		t.Errorf("all = %v", cc.All)
	}
	if cc.Distinct[1] != 1 {
		t.Errorf("distinct = %v", cc.Distinct)
	}
}

func TestStructureBreakdown(t *testing.T) {
	e1 := evAt(t0, 48, 0, 1)
	e1.Structure = gpu.DeviceMemory
	e1.StructureValid = true
	e2 := evAt(t0, 48, 1, 2)
	e2.Structure = gpu.RegisterFile
	e2.StructureValid = true
	e3 := evAt(t0, 13, 2, 3) // no structure info
	got := StructureBreakdown([]console.Event{e1, e2, e3})
	if got[gpu.DeviceMemory] != 1 || got[gpu.RegisterFile] != 1 || len(got) != 2 {
		t.Errorf("breakdown = %v", got)
	}
}

func TestRetirementDelays(t *testing.T) {
	events := []console.Event{
		evAt(t0, 48, 0, 1), // DBE 1
		evAt(t0.Add(2*time.Minute), xid.ECCPageRetirement, 0, 1),                // within 10 min
		evAt(t0.Add(2*time.Minute+time.Second), xid.ECCPageRetirementAlt, 0, 1), // companion: skip
		evAt(t0.Add(3*time.Hour), xid.ECCPageRetirement, 5, 9),                  // 10min-6h
		evAt(t0.Add(100*time.Hour), 48, 1, 2),                                   // DBE 2
		evAt(t0.Add(200*time.Hour), 48, 2, 3),                                   // DBE 3: no retirement between 2 and 3
		evAt(t0.Add(300*time.Hour), xid.ECCPageRetirement, 6, 10),               // beyond 6h after DBE 3
	}
	rt := RetirementDelays(events)
	if rt.Within10Min != 1 {
		t.Errorf("within10 = %d", rt.Within10Min)
	}
	if rt.TenMinTo6h != 1 {
		t.Errorf("10min-6h = %d", rt.TenMinTo6h)
	}
	if rt.Beyond6h != 1 {
		t.Errorf("beyond6h = %d", rt.Beyond6h)
	}
	if rt.DBEPairsWithoutRetirement != 1 {
		t.Errorf("pairs without retirement = %d", rt.DBEPairsWithoutRetirement)
	}
	if len(rt.Delays) != 3 {
		t.Errorf("delays = %v", rt.Delays)
	}
}

func TestRetirementNoPrecedingDBE(t *testing.T) {
	events := []console.Event{
		evAt(t0, xid.ECCPageRetirement, 0, 1),
	}
	rt := RetirementDelays(events)
	if rt.NoPrecedingDBE != 1 || len(rt.Delays) != 0 {
		t.Errorf("rt = %+v", rt)
	}
}

func TestFirstAppearance(t *testing.T) {
	events := []console.Event{
		evAt(t0, 48, 0, 1),
		evAt(t0.Add(time.Hour), xid.ECCPageRetirement, 0, 1),
	}
	if got := FirstAppearance(events, xid.ECCPageRetirement); !got.Equal(t0.Add(time.Hour)) {
		t.Errorf("first appearance = %v", got)
	}
	if !FirstAppearance(events, 99).IsZero() {
		t.Error("absent code should return zero time")
	}
}

func mkSnapshot(counts map[topology.NodeID]int64) nvsmi.Snapshot {
	var snap nvsmi.Snapshot
	for n, c := range counts {
		var d nvsmi.Device
		d.Node = n
		d.Serial = gpu.Serial(n + 1)
		d.Counts.SingleBit[gpu.L2Cache] = c
		snap.Devices = append(snap.Devices, d)
	}
	return snap
}

func TestNodeSBECountsAndOffenders(t *testing.T) {
	counts := map[topology.NodeID]int64{1: 100, 2: 50, 3: 7, 4: 0}
	snap := mkSnapshot(counts)
	got := NodeSBECounts(snap)
	if len(got) != 3 {
		t.Fatalf("zero-count nodes must be absent: %v", got)
	}
	top := TopSBEOffenders(got, 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Errorf("top = %v", top)
	}
	rest := ExcludeNodes(got, top)
	if len(rest) != 1 || rest[3] != 7 {
		t.Errorf("rest = %v", rest)
	}
}

func TestAnalyzeSBESkew(t *testing.T) {
	counts := map[topology.NodeID]int64{}
	// 60 nodes with 1 SBE each, plus one monster offender.
	for i := 0; i < 60; i++ {
		counts[topology.NodeID(i*96)] = 1
	}
	counts[topology.NodeID(5000)] = 10000
	sk := AnalyzeSBESkew(counts)
	if sk.AffectedCards != 61 {
		t.Errorf("affected = %d", sk.AffectedCards)
	}
	if sk.Top10Share < 0.99 {
		t.Errorf("top-10 share = %v, want near 1", sk.Top10Share)
	}
	if sk.All.Total() != 10060 {
		t.Errorf("all total = %d", sk.All.Total())
	}
	if sk.WithoutTop10.Total() >= sk.All.Total() {
		t.Error("excluding offenders must reduce the total")
	}
	if HomogeneityScore(sk.WithoutTop50) >= HomogeneityScore(sk.All) {
		t.Error("removing offenders must increase homogeneity")
	}
}

func TestAnalyzeSBECages(t *testing.T) {
	counts := map[topology.NodeID]int64{
		topology.Location{Cage: 2}.ID():           1000, // offender in top cage
		topology.Location{Cage: 0}.ID():           3,
		topology.Location{Cage: 1, Blade: 1}.ID(): 3,
		topology.Location{Cage: 2, Blade: 1}.ID(): 3,
	}
	ca := AnalyzeSBECages(counts)
	if !ca.All.TopHeavier() {
		t.Error("with the offender, top cage must dominate")
	}
	if ca.WithoutTop10.All[2] >= ca.All.All[2] {
		t.Errorf("exclusion must shrink the top cage: %d -> %d", ca.All.All[2], ca.WithoutTop10.All[2])
	}
	// Distinct cards stay spread.
	if ca.All.Distinct[0] != 1 || ca.All.Distinct[1] != 1 || ca.All.Distinct[2] != 2 {
		t.Errorf("distinct = %v", ca.All.Distinct)
	}
}

// TestOffenderRanking: asked for every node, TopSBEOffenders is the full
// ranking — descending count, ties by node.
func TestOffenderRanking(t *testing.T) {
	counts := map[topology.NodeID]int64{5: 10, 9: 10, 1: 99}
	r := TopSBEOffenders(counts, len(counts))
	if r[0] != 1 || r[1] != 5 || r[2] != 9 {
		t.Errorf("ranking = %v", r)
	}
}

// sampleWith builds a sample whose job ran on the one node used.
func sampleWith(user workload.UserID, nodes int, core float64, sbe int64, used int) nvsmi.JobSample {
	placement, err := scheduler.ParseNodes(strconv.Itoa(used))
	if err != nil {
		panic(err)
	}
	return nvsmi.JobSample{
		User: user, Nodes: nodes, CoreHours: core,
		MaxMemGB: 1, TotalMGBh: 2, SBEDelta: sbe, UsedNodes: placement,
	}
}

func TestSBEUtilizationCorrelations(t *testing.T) {
	var samples []nvsmi.JobSample
	// SBE strongly tracks core hours; offender node 7 adds huge noise.
	for i := 1; i <= 40; i++ {
		s := sampleWith(1, i, float64(i)*10, int64(i), i+100)
		samples = append(samples, s)
	}
	samples = append(samples, sampleWith(1, 5, 50, 100000, 7))
	ucs := SBEUtilizationCorrelations(samples, []topology.NodeID{7})
	if len(ucs) != 4 {
		t.Fatalf("got %d metrics", len(ucs))
	}
	for _, uc := range ucs {
		if uc.JobsAll != 41 || uc.JobsExcl != 40 {
			t.Errorf("%v: jobs = %d/%d", uc.Metric, uc.JobsAll, uc.JobsExcl)
		}
		if len(uc.SortedMetricNorm) != 41 || len(uc.SortedSBENorm) != 41 {
			t.Errorf("%v: sorted series missing", uc.Metric)
		}
		// Sorted series must be ascending in the metric.
		for i := 1; i < len(uc.SortedMetricNorm); i++ {
			if uc.SortedMetricNorm[i] < uc.SortedMetricNorm[i-1] {
				t.Fatalf("%v: sorted series not ascending", uc.Metric)
			}
		}
	}
	// Core-hours correlation should be strong and positive.
	ch := ucs[3]
	if ch.Metric != CoreHours {
		t.Fatalf("metric order wrong: %v", ch.Metric)
	}
	if ch.ExclSpearman.Coefficient < 0.95 {
		t.Errorf("excl spearman = %v, want ~1 on clean data", ch.ExclSpearman.Coefficient)
	}
}

func TestMetricKindStrings(t *testing.T) {
	for _, m := range []MetricKind{MaxMemory, TotalMemory, NodeCount, CoreHours} {
		if m.String() == "unknown metric" {
			t.Errorf("metric %d missing name", int(m))
		}
	}
	if MetricKind(99).String() != "unknown metric" {
		t.Error("unknown metric name wrong")
	}
	if MetricKind(99).value(nvsmi.JobSample{}) != 0 {
		t.Error("unknown metric value should be 0")
	}
}

func TestSBEByUser(t *testing.T) {
	var samples []nvsmi.JobSample
	// Three users; SBE proportional to core hours.
	for u := 1; u <= 3; u++ {
		for j := 0; j < 5; j++ {
			samples = append(samples, sampleWith(workload.UserID(u), 10, float64(u*100), int64(u*10), j))
		}
	}
	uc := SBEByUser(samples, nil)
	if uc.Users != 3 {
		t.Fatalf("users = %d", uc.Users)
	}
	if math.Abs(uc.AllSpearman.Coefficient-1) > 1e-9 {
		t.Errorf("spearman = %v, want 1", uc.AllSpearman.Coefficient)
	}
	// Per-user series sorted by core hours ascending.
	for i := 1; i < len(uc.PerUserCoreHours); i++ {
		if uc.PerUserCoreHours[i] < uc.PerUserCoreHours[i-1] {
			t.Fatal("per-user series not sorted")
		}
	}
}

func TestCharacterizeWorkloadEmpty(t *testing.T) {
	wc := CharacterizeWorkload(nil)
	if wc.TopMemJobsBelowAvgCoreHours || wc.SmallJobAmongLongest {
		t.Error("empty workload should produce zero-value characteristics")
	}
}

func TestAnalyzeInterArrivals(t *testing.T) {
	// Regular hourly events: Weibull fit succeeds; degenerate streams fail.
	var events []console.Event
	for i := 0; i < 200; i++ {
		events = append(events, evAt(t0.Add(time.Duration(i)*time.Hour), 48, 0, 1))
	}
	ia, err := AnalyzeInterArrivals(events)
	if err != nil {
		t.Fatal(err)
	}
	if ia.Exponential.Rate < 0.9 || ia.Exponential.Rate > 1.1 {
		t.Errorf("rate = %v, want ~1/h", ia.Exponential.Rate)
	}
	// Perfectly regular gaps are the extreme wear-out end: shape >> 1.
	if ia.Weibull.Shape < 2 {
		t.Errorf("regular arrivals should fit a large shape, got %v", ia.Weibull.Shape)
	}
	if _, err := AnalyzeInterArrivals(events[:2]); err == nil {
		t.Error("too-few events should fail")
	}
}

func TestNetworkCompactness(t *testing.T) {
	t0w := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := []workload.Job{
		{User: 1, Submit: t0w, Nodes: 512, Runtime: time.Hour, MaxMemPerNodeGB: 1, AvgMemPerNodeGB: 0.5},
		{User: 2, Submit: t0w, Nodes: 512, Runtime: time.Hour, MaxMemPerNodeGB: 1, AvgMemPerNodeGB: 0.5},
	}
	torus := scheduler.Schedule(jobs, scheduler.TorusFit)
	linear := scheduler.Schedule(jobs, scheduler.LinearFit)
	ct := NetworkCompactness(torus)
	cl := NetworkCompactness(linear)
	if ct <= 0 || cl <= 0 {
		t.Fatalf("degenerate compactness: torus %v linear %v", ct, cl)
	}
	if ct >= cl {
		t.Errorf("torus placement hops %.2f not below linear %.2f", ct, cl)
	}
	if NetworkCompactness(nil) != 0 {
		t.Error("empty job set should be 0")
	}
}

func TestRegimeChange(t *testing.T) {
	start := t0
	end := t0.AddDate(0, 0, 200)
	var events []console.Event
	// Five events a day for 120 days, then silence.
	for d := 0; d < 120; d++ {
		for j := 0; j < 5; j++ {
			events = append(events, evAt(start.AddDate(0, 0, d).Add(time.Duration(j)*time.Hour), xid.OffTheBus, 0, 1))
		}
	}
	when, lrt, err := RegimeChange(events, start, end)
	if err != nil {
		t.Fatal(err)
	}
	wantDay := start.AddDate(0, 0, 120)
	if diff := when.Sub(wantDay); diff < -5*24*time.Hour || diff > 5*24*time.Hour {
		t.Errorf("changepoint at %v, want ~%v", when, wantDay)
	}
	if lrt < 50 {
		t.Errorf("LRT = %v", lrt)
	}
}

func TestRankCardHealth(t *testing.T) {
	var snap nvsmi.Snapshot
	add := func(node topology.NodeID, serial gpu.Serial, sbe int64, pages int) {
		var d nvsmi.Device
		d.Node = node
		d.Serial = serial
		d.Counts.SingleBit[gpu.L2Cache] = sbe
		d.RetiredPages = pages
		snap.Devices = append(snap.Devices, d)
	}
	add(1, 11, 50000, 0) // heavy SBE offender
	add(2, 22, 0, 3)     // retirement consumer
	add(3, 33, 5, 0)     // had a DBE (below)
	add(4, 44, 0, 0)     // clean: excluded

	events := []console.Event{
		{Code: xid.DoubleBitError, Serial: 33, Node: 3, Page: console.NoPage},
		{Code: xid.DoubleBitError, Serial: 33, Node: 3, Page: console.NoPage},
		{Code: 13, Serial: 11, Node: 1, Page: console.NoPage}, // app error: ignored
	}
	health := RankCardHealth(snap, events, -1)
	if len(health) != 3 {
		t.Fatalf("ranked %d cards, want 3 (clean card excluded)", len(health))
	}
	// DBE history dominates, then retirement pages, then SBE volume.
	if health[0].Serial != 33 || health[1].Serial != 22 || health[2].Serial != 11 {
		t.Errorf("order = %v %v %v", health[0].Serial, health[1].Serial, health[2].Serial)
	}
	if health[0].DBEs != 2 {
		t.Errorf("DBE count = %d", health[0].DBEs)
	}
	// topN clamps.
	if got := RankCardHealth(snap, events, 1); len(got) != 1 || got[0].Serial != 33 {
		t.Errorf("topN wrong: %v", got)
	}
}
