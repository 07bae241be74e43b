// Package nvsmi simulates the nvidia-smi utility as the study used it:
// point-in-time snapshots of every card's InfoROM ECC counters, retired
// page counts and temperature, plus the per-batch-job before/after
// snapshot framework OLCF deployed to attribute single bit errors to jobs.
//
// The package intentionally reproduces the tool's operational limits
// (Observation 2): counts are aggregates with no timestamps, double bit
// errors can be missing when the node died before the InfoROM flushed,
// and a few cards have broken single-bit counters, so nvidia-smi data and
// console logs never reconcile exactly.
package nvsmi

import (
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/workload"
)

// Device is one card's state as nvidia-smi reports it.
type Device struct {
	Node         topology.NodeID
	Serial       gpu.Serial
	Counts       gpu.ErrorCounts // InfoROM aggregates (no timestamps)
	RetiredPages int
	TempF        float64
}

// Snapshot is the output of one machine-wide nvidia-smi sweep.
type Snapshot struct {
	Time    time.Time
	Devices []Device
}

// Take sweeps every populated node and reads its card's InfoROM.
func Take(t time.Time, fleet *gpu.Fleet) Snapshot {
	snap := Snapshot{Time: t}
	for n := topology.NodeID(0); n < topology.TotalNodes; n++ {
		c := fleet.CardAt(n)
		if c == nil {
			continue
		}
		snap.Devices = append(snap.Devices, Device{
			Node:         n,
			Serial:       c.Serial,
			Counts:       c.InfoROM,
			RetiredPages: len(c.Retirement.Retired()),
			TempF:        topology.NodeTempF(n),
		})
	}
	return snap
}

// TotalSBE sums single bit errors across the machine.
func (s Snapshot) TotalSBE() int64 {
	var t int64
	for i := range s.Devices {
		t += s.Devices[i].Counts.TotalSBE()
	}
	return t
}

// TotalDBE sums double bit errors across the machine.
func (s Snapshot) TotalDBE() int64 {
	var t int64
	for i := range s.Devices {
		t += s.Devices[i].Counts.TotalDBE()
	}
	return t
}

// InconsistentCards returns devices whose reported DBE count exceeds
// their reported SBE count — the theoretically implausible readings the
// paper attributes to logging inconsistency.
func (s Snapshot) InconsistentCards() []Device {
	var out []Device
	for _, d := range s.Devices {
		if d.Counts.TotalDBE() > d.Counts.TotalSBE() {
			out = append(out, d)
		}
	}
	return out
}

// JobSample is the outcome of the per-batch-job snapshot framework for
// one job: the resource-utilization record joined with the SBE delta
// measured between the job's prologue and epilogue snapshots.
type JobSample struct {
	Job       console.JobID
	User      workload.UserID
	Nodes     int
	CoreHours float64
	MaxMemGB  float64
	TotalMGBh float64
	// SBEDelta is the measured single-bit count attributed to the job.
	SBEDelta int64
	// PerStructure is the measured delta broken down by structure.
	PerStructure [gpu.NumStructures]int64
	// OffenderNodes lists which of the job's nodes are in a given
	// offender set; filled by analysis, not by the sampler.
	UsedNodes []topology.NodeID
}

// JobSampler implements the before/after snapshot framework. Begin is the
// job prologue (snapshot of the job's nodes only — sweeping all 18,688
// nodes per job would be prohibitive, exactly why OLCF scoped it to the
// allocation); End is the epilogue and yields the sample. The counters
// snapshot InfoROM state, so broken SBE counters and lost DBE records
// propagate into samples just as they did in production.
type JobSampler struct {
	fleet  *gpu.Fleet
	before map[console.JobID]map[topology.NodeID]gpu.ErrorCounts
}

// NewJobSampler builds a sampler over the fleet.
func NewJobSampler(fleet *gpu.Fleet) *JobSampler {
	return &JobSampler{
		fleet:  fleet,
		before: make(map[console.JobID]map[topology.NodeID]gpu.ErrorCounts),
	}
}

// Begin records the prologue snapshot for a job.
func (js *JobSampler) Begin(id console.JobID, nodes []topology.NodeID) {
	m := make(map[topology.NodeID]gpu.ErrorCounts, len(nodes))
	for _, n := range nodes {
		if c := js.fleet.CardAt(n); c != nil {
			m[n] = c.InfoROM
		}
	}
	js.before[id] = m
}

// End takes the epilogue snapshot and returns the job's sample. The
// record provides the resource-utilization side of the join. Nodes whose
// card was swapped mid-job contribute only their new card's counters
// (clamped at zero), one more small, realistic accounting artifact.
func (js *JobSampler) End(rec Record) JobSample {
	sample := JobSample{
		Job:       rec.ID,
		User:      rec.User,
		Nodes:     len(rec.Nodes),
		CoreHours: rec.CoreHours,
		MaxMemGB:  rec.MaxMemGB,
		TotalMGBh: rec.TotalMGBh,
		UsedNodes: append([]topology.NodeID(nil), rec.Nodes...),
	}
	before := js.before[rec.ID]
	for _, n := range rec.Nodes {
		c := js.fleet.CardAt(n)
		if c == nil {
			continue
		}
		delta := c.InfoROM.Sub(before[n])
		for s := 0; s < gpu.NumStructures; s++ {
			sample.PerStructure[s] += delta.SingleBit[s]
			sample.SBEDelta += delta.SingleBit[s]
		}
	}
	delete(js.before, rec.ID)
	return sample
}

// Record is the subset of a scheduler job record the sampler needs; kept
// local to avoid an import cycle with the scheduler package.
type Record struct {
	ID        console.JobID
	User      workload.UserID
	Nodes     []topology.NodeID
	CoreHours float64
	MaxMemGB  float64
	TotalMGBh float64
}
