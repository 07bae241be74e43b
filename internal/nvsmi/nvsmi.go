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
	"titanre/internal/scheduler"
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
	// UsedNodes is the job's placement, shared with its job record;
	// analysis asks which of them are in a given offender set.
	UsedNodes scheduler.Placement
}

// JobSampler implements the before/after snapshot framework. Begin is the
// job prologue (snapshot of the job's nodes only — sweeping all 18,688
// nodes per job would be prohibitive, exactly why OLCF scoped it to the
// allocation); End is the epilogue and yields the sample. The counters
// snapshot InfoROM state, so broken SBE counters and lost DBE records
// propagate into samples just as they did in production.
//
// The sampler keeps one sum per structure for each open job, not a
// reading per node: a card's single-bit counters only grow, so the sum
// of per-node deltas is the epilogue sum less the prologue sum. The one
// exception is a node whose card was swapped mid-job; Swapped books the
// reading the job began on there, and End clamps that node's delta at
// zero per structure, as a per-node reading would.
type JobSampler struct {
	fleet *gpu.Fleet
	open  map[console.JobID]prologue
}

// prologue is one open job's prologue snapshot: its per-structure sum,
// and for each node whose card was swapped since, the reading of the
// card the job began on.
type prologue struct {
	sum     [gpu.NumStructures]int64
	swapped map[topology.NodeID][gpu.NumStructures]int64
}

// NewJobSampler builds a sampler over the fleet.
func NewJobSampler(fleet *gpu.Fleet) *JobSampler {
	return &JobSampler{fleet: fleet, open: make(map[console.JobID]prologue)}
}

// Begin records the prologue snapshot for a job.
func (js *JobSampler) Begin(id console.JobID, nodes scheduler.Placement) {
	js.open[id] = prologue{sum: js.sum(nodes)}
}

// Swapped books a mid-job card swap: removed, just pulled from node n,
// was installed there when job id began, unless an earlier swap of the
// same job already booked the node. A single-bit error reaches a card
// only when its own job ends, so removed still holds its prologue
// reading. Jobs the sampler did not begin are ignored.
func (js *JobSampler) Swapped(id console.JobID, n topology.NodeID, removed *gpu.Card) {
	p, open := js.open[id]
	if _, booked := p.swapped[n]; !open || booked {
		return
	}
	if p.swapped == nil {
		p.swapped = make(map[topology.NodeID][gpu.NumStructures]int64)
		js.open[id] = p
	}
	p.swapped[n] = removed.InfoROM.SingleBit
}

// End takes the epilogue snapshot and returns the job's sample. The
// record provides the resource-utilization side of the join. Nodes whose
// card was swapped mid-job contribute only their new card's counters
// (clamped at zero), one more small, realistic accounting artifact.
func (js *JobSampler) End(rec *scheduler.Record) JobSample {
	sample := JobSample{
		Job:       rec.ID,
		User:      rec.Spec.User,
		Nodes:     rec.Nodes.Len(),
		CoreHours: rec.GPUCoreHours(),
		MaxMemGB:  rec.Spec.MaxMemoryGB(),
		TotalMGBh: rec.Spec.TotalMemoryGBh(),
		UsedNodes: rec.Nodes,
	}
	p := js.open[rec.ID]
	delete(js.open, rec.ID)
	// Where a swapped node's new card reads below the card the job began
	// on, the sums would charge the job that shortfall; taking it off the
	// prologue sum clamps the node's delta at zero, per structure.
	for n, began := range p.swapped {
		now := &js.fleet.CardAt(n).InfoROM.SingleBit
		for s := range began {
			p.sum[s] -= max(began[s]-now[s], 0)
		}
	}
	for s, v := range js.sum(rec.Nodes) {
		sample.PerStructure[s] = v - p.sum[s]
		sample.SBEDelta += sample.PerStructure[s]
	}
	return sample
}

// sum adds up the single-bit counters of the cards at nodes, per
// structure.
func (js *JobSampler) sum(nodes scheduler.Placement) (sum [gpu.NumStructures]int64) {
	for ri := range nodes.NumRuns() {
		for _, n := range nodes.Run(ri) {
			if c := js.fleet.CardAt(n); c != nil {
				for s := range sum {
					sum[s] += c.InfoROM.SingleBit[s]
				}
			}
		}
	}
	return sum
}
