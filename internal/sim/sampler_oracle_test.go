package sim

import (
	"fmt"
	"reflect"
	"testing"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/nvsmi"
	"titanre/internal/scheduler"
	"titanre/internal/topology"
)

// refSampler is the per-job snapshot framework kept the plain way: a
// map of every node's InfoROM reading per open job, and a per-node
// delta clamped at zero at the epilogue. It needs no word of a card
// swap, which makes it the reference for nvsmi.JobSampler's per-job
// sums and swap bookings.
type refSampler struct {
	fleet  *gpu.Fleet
	before map[console.JobID]map[topology.NodeID]gpu.ErrorCounts
	// clamps counts the per-node structure deltas the epilogue clamped:
	// the cases where the sums alone would be wrong.
	clamps int
}

func (r *refSampler) Begin(id console.JobID, nodes scheduler.Placement) {
	m := make(map[topology.NodeID]gpu.ErrorCounts, nodes.Len())
	for _, n := range nodes.AppendTo(nil) {
		if c := r.fleet.CardAt(n); c != nil {
			m[n] = c.InfoROM
		}
	}
	r.before[id] = m
}

func (r *refSampler) Swapped(console.JobID, topology.NodeID, *gpu.Card) {}

func (r *refSampler) End(rec *scheduler.Record) nvsmi.JobSample {
	sample := nvsmi.JobSample{
		Job:       rec.ID,
		User:      rec.Spec.User,
		Nodes:     rec.Nodes.Len(),
		CoreHours: rec.GPUCoreHours(),
		MaxMemGB:  rec.Spec.MaxMemoryGB(),
		TotalMGBh: rec.Spec.TotalMemoryGBh(),
		UsedNodes: rec.Nodes,
	}
	before := r.before[rec.ID]
	for _, n := range rec.Nodes.AppendTo(nil) {
		c := r.fleet.CardAt(n)
		if c == nil {
			continue
		}
		for s := range sample.PerStructure {
			if d := c.InfoROM.SingleBit[s] - before[n].SingleBit[s]; d > 0 {
				sample.PerStructure[s] += d
				sample.SBEDelta += d
			} else if d < 0 {
				r.clamps++
			}
		}
	}
	delete(r.before, rec.ID)
	return sample
}

// teeSampler drives the production sampler and the reference through
// the same walk and keeps every epilogue where they disagree.
type teeSampler struct {
	got      *nvsmi.JobSampler
	ref      *refSampler
	samples  int
	mismatch []string
}

func (t *teeSampler) Begin(id console.JobID, nodes scheduler.Placement) {
	t.got.Begin(id, nodes)
	t.ref.Begin(id, nodes)
}

func (t *teeSampler) Swapped(id console.JobID, n topology.NodeID, removed *gpu.Card) {
	t.got.Swapped(id, n, removed)
	t.ref.Swapped(id, n, removed)
}

func (t *teeSampler) End(rec *scheduler.Record) nvsmi.JobSample {
	got, want := t.got.End(rec), t.ref.End(rec)
	t.samples++
	if !reflect.DeepEqual(got, want) && len(t.mismatch) < 5 {
		t.mismatch = append(t.mismatch, describeSample(got)+" want "+describeSample(want))
	}
	return got
}

func describeSample(s nvsmi.JobSample) string {
	return fmt.Sprintf("job %d: SBE %d %v", s.Job, s.SBEDelta, s.PerStructure)
}

// TestJobSamplerMatchesReference holds the per-job sums to the per-node
// reference on a swap-heavy walk over the bench's two-month period:
// every DBE pulls its card, the spare pool runs dry at once (so
// replacements are freshly manufactured, with zero counters), and every
// job is sampled. The default configuration never reaches the clamp, so
// this is the row that gates it: the walk must clamp somewhere (seeds 1
// and 2 do), and every sample must equal the reference's.
func TestJobSamplerMatchesReference(t *testing.T) {
	clamps := 0
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.End = cfg.Start.AddDate(0, 2, 0)
		cfg.HotSpareThreshold = 1
		cfg.Spares = 3
		cfg.SampleWindow = cfg.End.Sub(cfg.Start)
		var tee *teeSampler
		res := run(cfg, func(f *gpu.Fleet) jobSampler {
			tee = &teeSampler{
				got: nvsmi.NewJobSampler(f),
				ref: &refSampler{fleet: f, before: map[console.JobID]map[topology.NodeID]gpu.ErrorCounts{}},
			}
			return tee
		})
		if tee.samples != len(res.Jobs) || len(res.Samples) != len(res.Jobs) {
			t.Errorf("seed %d: %d samples of %d jobs; the window covers every job", seed, tee.samples, len(res.Jobs))
		}
		for _, m := range tee.mismatch {
			t.Errorf("seed %d: sample %s", seed, m)
		}
		t.Logf("seed %d: %d samples, %d clamped node-structure deltas", seed, tee.samples, tee.ref.clamps)
		clamps += tee.ref.clamps
	}
	if clamps == 0 {
		t.Error("no epilogue clamped a delta; the swap rule went untested")
	}
}
