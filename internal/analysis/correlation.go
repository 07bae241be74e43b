package analysis

import (
	"titanre/internal/nvsmi"
	"titanre/internal/stats"
	"titanre/internal/topology"
	"titanre/internal/workload"
)

// MetricKind names the resource-utilization metric of Figs. 16-19.
type MetricKind int

const (
	MaxMemory   MetricKind = iota // Fig. 16
	TotalMemory                   // Fig. 17
	NodeCount                     // Fig. 18
	CoreHours                     // Fig. 19
)

func (m MetricKind) String() string {
	switch m {
	case MaxMemory:
		return "maximum memory consumption"
	case TotalMemory:
		return "total memory consumption"
	case NodeCount:
		return "number of nodes"
	case CoreHours:
		return "GPU core hours"
	default:
		return "unknown metric"
	}
}

// value extracts the metric from a sample.
func (m MetricKind) value(s nvsmi.JobSample) float64 {
	switch m {
	case MaxMemory:
		return s.MaxMemGB
	case TotalMemory:
		return s.TotalMGBh
	case NodeCount:
		return float64(s.Nodes)
	case CoreHours:
		return s.CoreHours
	default:
		return 0
	}
}

// UtilizationCorrelation is one row of the Figs. 16-19 result: how SBE
// counts correlate with a metric, over all jobs and after excluding jobs
// that touched any top-10 SBE offender node.
type UtilizationCorrelation struct {
	Metric           MetricKind
	AllSpearman      stats.Correlation
	AllPearson       stats.Correlation
	ExclSpearman     stats.Correlation
	ExclPearson      stats.Correlation
	JobsAll          int
	JobsExcl         int
	SortedMetricNorm []float64 // metric values sorted ascending, mean-normalized
	SortedSBENorm    []float64 // SBE counts in the same order, mean-normalized
}

// usesOffender reports whether a sample's allocation touched one of the
// given nodes.
func usesOffender(s nvsmi.JobSample, offenders map[topology.NodeID]bool) bool {
	for ri := range s.UsedNodes.NumRuns() {
		for _, n := range s.UsedNodes.Run(ri) {
			if offenders[n] {
				return true
			}
		}
	}
	return false
}

// SBEUtilizationCorrelations computes Figs. 16-19 from per-job samples
// and the top-10 offender set.
func SBEUtilizationCorrelations(samples []nvsmi.JobSample, top10 []topology.NodeID) []UtilizationCorrelation {
	offenders := make(map[topology.NodeID]bool, len(top10))
	for _, n := range top10 {
		offenders[n] = true
	}
	var out []UtilizationCorrelation
	for _, metric := range []MetricKind{MaxMemory, TotalMemory, NodeCount, CoreHours} {
		uc := UtilizationCorrelation{Metric: metric}
		var mAll, sAll, mExcl, sExcl []float64
		for _, s := range samples {
			v := metric.value(s)
			mAll = append(mAll, v)
			sAll = append(sAll, float64(s.SBEDelta))
			if !usesOffender(s, offenders) {
				mExcl = append(mExcl, v)
				sExcl = append(sExcl, float64(s.SBEDelta))
			}
		}
		uc.JobsAll = len(mAll)
		uc.JobsExcl = len(mExcl)
		if c, err := stats.Spearman(mAll, sAll); err == nil {
			uc.AllSpearman = c
		}
		if c, err := stats.Pearson(mAll, sAll); err == nil {
			uc.AllPearson = c
		}
		if c, err := stats.Spearman(mExcl, sExcl); err == nil {
			uc.ExclSpearman = c
		}
		if c, err := stats.Pearson(mExcl, sExcl); err == nil {
			uc.ExclPearson = c
		}
		// The paper's presentation: sort jobs by the metric, normalize
		// both curves to their means.
		order := make([]int, len(mAll))
		for i := range order {
			order[i] = i
		}
		sortByKey(order, mAll)
		sortedM := make([]float64, len(order))
		sortedS := make([]float64, len(order))
		for i, idx := range order {
			sortedM[i] = mAll[idx]
			sortedS[i] = sAll[idx]
		}
		uc.SortedMetricNorm = stats.NormalizeToMean(sortedM)
		uc.SortedSBENorm = stats.NormalizeToMean(sortedS)
		out = append(out, uc)
	}
	return out
}

// UserCorrelation is the Fig. 20 analysis: userID as a proxy for the
// application, correlating each user's aggregate GPU core hours with
// their aggregate SBE count.
type UserCorrelation struct {
	AllSpearman  stats.Correlation
	ExclSpearman stats.Correlation
	Users        int
	// PerUser holds (coreHours, sbe) pairs sorted by core hours.
	PerUserCoreHours []float64
	PerUserSBE       []float64
	PerUserID        []workload.UserID
}

// SBEByUser computes Fig. 20.
func SBEByUser(samples []nvsmi.JobSample, top10 []topology.NodeID) UserCorrelation {
	offenders := make(map[topology.NodeID]bool, len(top10))
	for _, n := range top10 {
		offenders[n] = true
	}
	type agg struct{ core, sbe, coreX, sbeX float64 }
	perUser := make(map[workload.UserID]*agg)
	for _, s := range samples {
		a := perUser[s.User]
		if a == nil {
			a = &agg{}
			perUser[s.User] = a
		}
		a.core += s.CoreHours
		a.sbe += float64(s.SBEDelta)
		if !usesOffender(s, offenders) {
			a.coreX += s.CoreHours
			a.sbeX += float64(s.SBEDelta)
		}
	}
	uc := UserCorrelation{Users: len(perUser)}
	ids := make([]workload.UserID, 0, len(perUser))
	for id := range perUser {
		ids = append(ids, id)
	}
	sortUserIDs(ids)
	var core, sbe, coreX, sbeX []float64
	for _, id := range ids {
		a := perUser[id]
		core = append(core, a.core)
		sbe = append(sbe, a.sbe)
		coreX = append(coreX, a.coreX)
		sbeX = append(sbeX, a.sbeX)
	}
	if c, err := stats.Spearman(core, sbe); err == nil {
		uc.AllSpearman = c
	}
	if c, err := stats.Spearman(coreX, sbeX); err == nil {
		uc.ExclSpearman = c
	}
	// Presentation order: ascending core hours.
	order := make([]int, len(core))
	for i := range order {
		order[i] = i
	}
	sortByKey(order, core)
	for _, idx := range order {
		uc.PerUserCoreHours = append(uc.PerUserCoreHours, core[idx])
		uc.PerUserSBE = append(uc.PerUserSBE, sbe[idx])
		uc.PerUserID = append(uc.PerUserID, ids[idx])
	}
	return uc
}
