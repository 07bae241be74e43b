package core

import (
	"fmt"
	"time"

	"titanre/internal/analysis"
	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// ObservationCheck is the automated verdict on one of the paper's
// fourteen observations, evaluated against the synthetic dataset.
type ObservationCheck struct {
	Number int
	Claim  string
	Pass   bool
	Detail string
}

// CheckObservations evaluates all fourteen observations.
func (s *Study) CheckObservations() []ObservationCheck {
	return []ObservationCheck{
		s.obs1MTBF(),
		s.obs2NvidiaSMI(),
		s.obs3Structures(),
		s.obs4OTB(),
		s.obs5Retirement(),
		s.obs6Burstiness(),
		s.obs7Propagation(),
		s.obs8FaultyNode(),
		s.obs9Correlation(),
		s.obs10SBESkew(),
		s.obs11MemoryCorrelation(),
		s.obs12UtilizationCorrelation(),
		s.obs13UserProxy(),
		s.obs14Workload(),
	}
}

func (s *Study) obs1MTBF() ObservationCheck {
	oc := ObservationCheck{Number: 1, Claim: "DBE MTBF is high, roughly one per week (~160 h)"}
	mtbf, err := s.DBEMTBF()
	if err != nil {
		oc.Detail = "no DBEs observed"
		return oc
	}
	h := mtbf.Hours()
	oc.Pass = h >= 100 && h <= 260
	oc.Detail = fmt.Sprintf("measured MTBF %.0f h over %d DBEs", h, len(s.EventsOf(xid.DoubleBitError)))
	return oc
}

func (s *Study) obs2NvidiaSMI() ObservationCheck {
	oc := ObservationCheck{Number: 2, Claim: "nvidia-smi undercounts DBEs relative to console logs"}
	consoleDBE := len(s.EventsOf(xid.DoubleBitError))
	smiDBE := s.Result.Snapshot.TotalDBE()
	inconsistent := len(s.Result.Snapshot.InconsistentCards())
	oc.Pass = int64(consoleDBE) > smiDBE && inconsistent > 0
	oc.Detail = fmt.Sprintf("console %d vs nvidia-smi %d DBEs; %d cards report DBE>SBE",
		consoleDBE, smiDBE, inconsistent)
	return oc
}

func (s *Study) obs3Structures() ObservationCheck {
	oc := ObservationCheck{Number: 3, Claim: "~86% of DBEs in device memory, ~14% in register file"}
	b := s.Fig3cDBEStructures()
	total := 0
	for _, c := range b {
		total += c
	}
	if total == 0 {
		oc.Detail = "no DBEs"
		return oc
	}
	dev := float64(b[gpu.DeviceMemory]) / float64(total)
	reg := float64(b[gpu.RegisterFile]) / float64(total)
	oc.Pass = dev > 0.72 && dev < 0.95 && reg > 0.05 && reg < 0.28 && dev+reg > 0.99
	oc.Detail = fmt.Sprintf("device memory %.0f%%, register file %.0f%%", dev*100, reg*100)
	return oc
}

func (s *Study) obs4OTB() ObservationCheck {
	oc := ObservationCheck{Number: 4, Claim: "off-the-bus dominated pre-fix, then negligible; upper cages hit more"}
	var pre, post int
	for _, e := range s.EventsOf(xid.OffTheBus) {
		if e.Time.Before(s.Config.OTBFix) {
			pre++
		} else {
			post++
		}
	}
	_, cages := s.Fig5OTBSpatial()
	oc.Pass = pre > 5*post && cages.TopHeavier()
	oc.Detail = fmt.Sprintf("%d before the soldering fix, %d after; cages bottom..top %v", pre, post, cages.All)
	return oc
}

func (s *Study) obs5Retirement() ObservationCheck {
	oc := ObservationCheck{Number: 5, Claim: "page retirement appears with the Jan 2014 driver; most records follow a DBE within minutes"}
	first := analysis.FirstAppearance(s.Result.Events, xid.ECCPageRetirement)
	rt := s.Fig8RetirementTiming()
	oc.Pass = !first.IsZero() && !first.Before(s.Config.RetirementDriver) &&
		rt.Within10Min > 0 && rt.Beyond6h > 0 && rt.Within10Min > rt.TenMinTo6h
	oc.Detail = fmt.Sprintf("first record %s; <=10min %d, 10min-6h %d, >6h %d, DBE pairs w/o retirement %d",
		first.Format("2006-01-02"), rt.Within10Min, rt.TenMinTo6h, rt.Beyond6h, rt.DBEPairsWithoutRetirement)
	return oc
}

func (s *Study) obs6Burstiness() ObservationCheck {
	oc := ObservationCheck{Number: 6, Claim: "application XIDs are bursty and frequent; driver XIDs are neither"}
	_, appBurst := s.Fig10XID13Daily()
	driverDaily := analysis.DailyCounts(s.EventsOf(xid.ContextSwitchFault), s.Config.Start, s.Config.End)
	driverBurst := analysis.BurstinessIndex(driverDaily)
	app := len(s.EventsOf(13))
	driver := len(s.EventsOf(xid.ContextSwitchFault))
	oc.Pass = appBurst > 3*driverBurst && app > driver
	oc.Detail = fmt.Sprintf("burstiness XID13 %.1f vs XID44 %.1f; raw counts %d vs %d",
		appBurst, driverBurst, app, driver)
	return oc
}

func (s *Study) obs7Propagation() ObservationCheck {
	oc := ObservationCheck{Number: 7, Claim: "application errors appear on every node of the job within five seconds; folded torus gives alternating cabinets"}
	recByID := make(map[console.JobID]int)
	for i, r := range s.Result.Jobs {
		recByID[r.ID] = i
	}
	type span struct {
		first, last time.Time
		count       int
	}
	perJob := make(map[console.JobID]*span)
	for _, e := range s.EventsOf(13) {
		if e.Job == 0 {
			continue
		}
		sp := perJob[e.Job]
		if sp == nil {
			perJob[e.Job] = &span{first: e.Time, last: e.Time, count: 1}
			continue
		}
		if e.Time.Before(sp.first) {
			sp.first = e.Time
		}
		if e.Time.After(sp.last) {
			sp.last = e.Time
		}
		sp.count++
	}
	var within5s, fullCoverage, jobs int
	for id, sp := range perJob {
		idx, ok := recByID[id]
		if !ok {
			continue
		}
		jobs++
		if sp.last.Sub(sp.first) <= s.Config.PropagationWindow+time.Second {
			within5s++
		}
		if sp.count >= s.Result.Jobs[idx].Nodes.Len() {
			fullCoverage++
		}
	}
	alt := analysis.FootprintAlternation(s.Result.Jobs)
	oc.Pass = jobs > 0 &&
		float64(within5s) >= 0.9*float64(jobs) &&
		float64(fullCoverage) >= 0.9*float64(jobs) &&
		alt > 1.3
	oc.Detail = fmt.Sprintf("%d affected jobs: %.0f%% within window, %.0f%% full node coverage; footprint column gap %.2f (torus ~2, linear 1)",
		jobs, pct(within5s, jobs), pct(fullCoverage, jobs), alt)
	return oc
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func (s *Study) obs8FaultyNode() ObservationCheck {
	oc := ObservationCheck{Number: 8, Claim: "one node repeats XID 13 across unrelated jobs (hardware masquerading as an app error)"}
	if s.Config.FaultyNode < 0 {
		oc.Detail = "faulty-node injection disabled"
		return oc
	}
	node := topology.NodeID(s.Config.FaultyNode)
	jobs := make(map[console.JobID]bool)
	count := 0
	for _, e := range s.EventsOf(13) {
		if e.Node != node {
			continue
		}
		count++
		if e.Job != 0 {
			jobs[e.Job] = true
		}
	}
	oc.Pass = count >= 5 && len(jobs) >= 3
	oc.Detail = fmt.Sprintf("node %s saw %d XID 13 events across %d distinct jobs",
		topology.LocationOf(node).CName(), count, len(jobs))
	return oc
}

func (s *Study) obs9Correlation() ObservationCheck {
	oc := ObservationCheck{Number: 9, Claim: "DBE is followed by XID 45/63; XID 13 by XID 43; OTB/38/48/63 are isolated"}
	withSame, _, codes := s.Fig13Heatmaps()
	idx := make(map[xid.Code]int, len(codes))
	for i, c := range codes {
		idx[c] = i
	}
	p4845 := withSame[idx[48]][idx[45]]
	p4863 := withSame[idx[48]][idx[63]]
	p1343 := withSame[idx[13]][idx[43]]
	diag := func(c xid.Code) float64 { return withSame[idx[c]][idx[c]] }
	oc.Pass = p4845 > 0.3 && p4863 > 0.2 && p1343 > 0.3 &&
		diag(xid.OffTheBus) < 0.1 && diag(38) < 0.1 && diag(48) < 0.1 && diag(63) < 0.15 &&
		diag(13) > 0.3
	oc.Detail = fmt.Sprintf("P(45|48)=%.2f P(63|48)=%.2f P(43|13)=%.2f; diagonals OTB=%.2f 48=%.2f 13=%.2f",
		p4845, p4863, p1343, diag(xid.OffTheBus), diag(48), diag(13))
	return oc
}

func (s *Study) obs10SBESkew() ObservationCheck {
	oc := ObservationCheck{Number: 10, Claim: "SBEs highly skewed; <5% of cards affected; removing top 50 homogenizes; proneness is card-inherent"}
	sk := s.Fig14SBESkew()
	ca := s.Fig15SBECages()
	homoAll := analysis.HomogeneityScore(sk.All)
	homo50 := analysis.HomogeneityScore(sk.WithoutTop50)
	// Distinct affected cards spread roughly evenly across cages.
	var minD, maxD int64 = 1 << 62, 0
	for _, d := range ca.All.Distinct {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	cardSpreadOK := minD > 0 && float64(maxD)/float64(minD) < 1.35
	oc.Pass = sk.AffectedFraction < 0.065 && sk.Top10Share > 0.22 &&
		homo50 < homoAll*0.7 && cardSpreadOK
	oc.Detail = fmt.Sprintf("affected %.1f%%; top-10 share %.0f%%; homogeneity CV %.2f -> %.2f after top-50; distinct cards per cage %v",
		100*sk.AffectedFraction, 100*sk.Top10Share, homoAll, homo50, ca.All.Distinct)
	return oc
}

func (s *Study) obs11MemoryCorrelation() ObservationCheck {
	oc := ObservationCheck{Number: 11, Claim: "SBE count correlates weakly with memory utilization; most SBEs are in the L2 cache"}
	ucs := s.Fig16to19Correlations()
	maxMem := ucs[0].AllSpearman.Coefficient
	totMem := ucs[1].AllSpearman.Coefficient
	var perStruct [gpu.NumStructures]int64
	for _, sample := range s.Result.Samples {
		for i, v := range sample.PerStructure {
			perStruct[i] += v
		}
	}
	l2Dominant := true
	for i, v := range perStruct {
		if gpu.Structure(i) != gpu.L2Cache && v >= perStruct[gpu.L2Cache] {
			l2Dominant = false
		}
	}
	oc.Pass = maxMem < 0.5 && totMem < 0.5 && l2Dominant
	oc.Detail = fmt.Sprintf("Spearman max-mem %.2f, total-mem %.2f; L2 share %d of %d SBEs",
		maxMem, totMem, perStruct[gpu.L2Cache], sum64(perStruct[:]))
	return oc
}

func sum64(xs []int64) int64 {
	var t int64
	for _, v := range xs {
		t += v
	}
	return t
}

func (s *Study) obs12UtilizationCorrelation() ObservationCheck {
	oc := ObservationCheck{Number: 12, Claim: "SBE count correlates with node count and core hours; excluding top offenders weakens it"}
	ucs := s.Fig16to19Correlations()
	nodes := ucs[2]
	core := ucs[3]
	oc.Pass = nodes.AllSpearman.Coefficient > 0.35 && core.AllSpearman.Coefficient > 0.45 &&
		core.AllSpearman.Coefficient > nodes.AllSpearman.Coefficient-0.05 &&
		nodes.ExclSpearman.Coefficient < nodes.AllSpearman.Coefficient &&
		core.ExclSpearman.Coefficient < core.AllSpearman.Coefficient
	oc.Detail = fmt.Sprintf("Spearman nodes %.2f->%.2f, core-hours %.2f->%.2f (all -> excl top-10)",
		nodes.AllSpearman.Coefficient, nodes.ExclSpearman.Coefficient,
		core.AllSpearman.Coefficient, core.ExclSpearman.Coefficient)
	return oc
}

func (s *Study) obs13UserProxy() ObservationCheck {
	oc := ObservationCheck{Number: 13, Claim: "userID is a better proxy for SBE exposure than per-job core hours"}
	uc := s.Fig20UserCorrelation()
	jobLevel := s.Fig16to19Correlations()[3].AllSpearman.Coefficient
	oc.Pass = uc.AllSpearman.Coefficient > jobLevel && uc.AllSpearman.Coefficient > 0.55
	oc.Detail = fmt.Sprintf("per-user Spearman %.2f vs per-job %.2f (excl top-10: %.2f)",
		uc.AllSpearman.Coefficient, jobLevel, uc.ExclSpearman.Coefficient)
	return oc
}

func (s *Study) obs14Workload() ObservationCheck {
	oc := ObservationCheck{Number: 14, Claim: "largest/longest jobs don't consume the most memory; small jobs can run longest; memory-max jobs use few nodes"}
	wc := s.Fig21Workload()
	oc.Pass = wc.TopMemJobsBelowAvgCoreHours && wc.SmallJobAmongLongest && wc.NodesCoreHoursSpearman > 0.4
	oc.Detail = fmt.Sprintf("top-mem below avg core-hours: %v; small job among longest: %v; nodes~core-hours rho %.2f",
		wc.TopMemJobsBelowAvgCoreHours, wc.SmallJobAmongLongest, wc.NodesCoreHoursSpearman)
	return oc
}
