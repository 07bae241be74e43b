package nvsmi

import (
	"slices"
	"testing"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/scheduler"
	"titanre/internal/topology"
	"titanre/internal/workload"
)

func TestTakeSnapshot(t *testing.T) {
	fleet := gpu.NewFleet(0)
	now := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	snap := Take(now, fleet)
	if len(snap.Devices) != topology.TotalComputeGPUs {
		t.Fatalf("snapshot has %d devices, want %d", len(snap.Devices), topology.TotalComputeGPUs)
	}
	if snap.TotalSBE() != 0 || snap.TotalDBE() != 0 {
		t.Error("fresh fleet should report zero errors")
	}
	fleet.CardAt(5).RecordSBE(gpu.L2Cache, 0)
	fleet.CardAt(5).RecordDBE(gpu.DeviceMemory, 1, true)
	snap = Take(now, fleet)
	if snap.TotalSBE() != 1 || snap.TotalDBE() != 1 {
		t.Errorf("totals = %d sbe, %d dbe", snap.TotalSBE(), snap.TotalDBE())
	}
}

func TestSnapshotMissesUnflushedDBE(t *testing.T) {
	fleet := gpu.NewFleet(0)
	fleet.CardAt(3).RecordDBE(gpu.DeviceMemory, 0, false) // node died first
	snap := Take(time.Time{}, fleet)
	if snap.TotalDBE() != 0 {
		t.Error("unflushed DBE must not appear in nvidia-smi output (Observation 2)")
	}
	if fleet.CardAt(3).TrueCounts.TotalDBE() != 1 {
		t.Error("ground truth must still hold the event")
	}
}

func TestInconsistentCards(t *testing.T) {
	fleet := gpu.NewFleet(0)
	c := fleet.CardAt(7)
	c.SBECounterBroken = true
	c.RecordSBE(gpu.L2Cache, 0)
	c.RecordSBE(gpu.L2Cache, 1)
	c.RecordDBE(gpu.DeviceMemory, 2, true)
	snap := Take(time.Time{}, fleet)
	bad := snap.InconsistentCards()
	if len(bad) != 1 || bad[0].Serial != c.Serial {
		t.Fatalf("inconsistent cards = %+v, want card %v", bad, c.Serial)
	}
	if bad[0].Counts.TotalDBE() <= bad[0].Counts.TotalSBE() {
		t.Error("reported DBE must exceed reported SBE for the broken card")
	}
}

func TestCageTemperatureMeans(t *testing.T) {
	fleet := gpu.NewFleet(0)
	snap := Take(time.Time{}, fleet)
	var means, n [topology.CagesPerCabinet]float64
	for _, d := range snap.Devices {
		means[topology.CageOf(d.Node)] += d.TempF
		n[topology.CageOf(d.Node)]++
	}
	for cage := range means {
		means[cage] /= n[cage]
	}
	if means[2]-means[0] <= 10 {
		t.Errorf("top-bottom temperature delta = %.1fF, want > 10F", means[2]-means[0])
	}
	if !(means[2] > means[1] && means[1] > means[0]) {
		t.Errorf("cage means not monotonic: %v", means)
	}
}

func TestRetiredPagesReported(t *testing.T) {
	fleet := gpu.NewFleet(0)
	fleet.EnableRetirement()
	fleet.CardAt(0).RecordDBE(gpu.DeviceMemory, 9, true)
	snap := Take(time.Time{}, fleet)
	if snap.Devices[0].RetiredPages != 1 {
		t.Errorf("retired pages = %d, want 1", snap.Devices[0].RetiredPages)
	}
}

// placement parses a job-log node list for a test record.
func placement(t *testing.T, nodes string) scheduler.Placement {
	t.Helper()
	p, err := scheduler.ParseNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestJobSampler(t *testing.T) {
	fleet := gpu.NewFleet(0)
	js := NewJobSampler(fleet)

	// Pre-job noise on node 10 must not be attributed to the job.
	fleet.CardAt(10).RecordSBE(gpu.L2Cache, 0)

	rec := scheduler.Record{
		ID: 77, Spec: workload.Job{User: 3, Runtime: 10 * time.Hour, MaxMemPerNodeGB: 2, AvgMemPerNodeGB: 0.4},
		End:   time.Date(2014, 1, 1, 10, 0, 0, 0, time.UTC),
		Nodes: placement(t, "10-12"),
	}
	rec.Start = rec.End.Add(-10 * time.Hour)
	js.Begin(rec.ID, rec.Nodes)
	fleet.CardAt(10).RecordSBE(gpu.L2Cache, 1)
	fleet.CardAt(11).RecordSBE(gpu.DeviceMemory, 2)
	fleet.CardAt(11).RecordSBE(gpu.DeviceMemory, 3)
	// Errors on a node outside the job are invisible to the sample.
	fleet.CardAt(100).RecordSBE(gpu.L2Cache, 4)

	sample := js.End(&rec)
	if sample.SBEDelta != 3 {
		t.Errorf("SBE delta = %d, want 3", sample.SBEDelta)
	}
	if sample.PerStructure[gpu.L2Cache] != 1 || sample.PerStructure[gpu.DeviceMemory] != 2 {
		t.Errorf("per-structure = %v", sample.PerStructure)
	}
	if sample.Job != 77 || sample.User != 3 || sample.Nodes != 3 || sample.CoreHours != 30 ||
		sample.MaxMemGB != rec.Spec.MaxMemoryGB() || sample.TotalMGBh != rec.Spec.TotalMemoryGBh() {
		t.Errorf("metadata not joined: %+v", sample)
	}
	if got := sample.UsedNodes.AppendTo(nil); !slices.Equal(got, []topology.NodeID{10, 11, 12}) {
		t.Errorf("UsedNodes = %v, want the job's placement", got)
	}
	if len(js.open) != 0 {
		t.Error("sampler should drop prologue state after End")
	}
}

// TestJobSamplerSwapClamp: a node whose card was swapped mid-job, once
// or twice, counts only what its last card reads over the prologue
// reading of the card the job began on, clamped at zero per structure,
// while the job's other nodes count in full.
func TestJobSamplerSwapClamp(t *testing.T) {
	fleet := gpu.NewFleet(1)
	fleet.SwapThreshold = 1
	js := NewJobSampler(fleet)
	for i := 0; i < 5; i++ {
		fleet.CardAt(10).RecordSBE(gpu.L2Cache, int32(i))
	}
	rec := scheduler.Record{ID: 1, Nodes: placement(t, "10-11")}
	js.Begin(rec.ID, rec.Nodes)
	fleet.CardAt(10).RecordDBE(gpu.DeviceMemory, 0, true)
	removed := fleet.NoteDBE(10, time.Time{})
	if removed == nil {
		t.Fatal("no swap at threshold 1")
	}
	js.Swapped(rec.ID, 10, removed)
	js.Swapped(99, 10, removed) // a job the sampler never began
	// A second swap of the same node: the job began on the first card,
	// so this booking must not count.
	for i := 0; i < 3; i++ {
		fleet.CardAt(10).RecordSBE(gpu.L2Cache, int32(9+i))
	}
	fleet.CardAt(10).RecordDBE(gpu.DeviceMemory, 0, true)
	js.Swapped(rec.ID, 10, fleet.NoteDBE(10, time.Time{}))
	fleet.CardAt(10).RecordSBE(gpu.L2Cache, 0)
	fleet.CardAt(10).RecordSBE(gpu.DeviceMemory, 1)
	fleet.CardAt(11).RecordSBE(gpu.L2Cache, 2)
	s := js.End(&rec)
	// Node 10: L2 1-5 clamps to 0, device memory 1-0 = 1. Node 11: L2 1.
	if s.PerStructure[gpu.L2Cache] != 1 || s.PerStructure[gpu.DeviceMemory] != 1 || s.SBEDelta != 2 {
		t.Errorf("per-structure %v, total %d; want L2 1, device memory 1, total 2", s.PerStructure, s.SBEDelta)
	}
}

func TestJobSamplerBrokenCounter(t *testing.T) {
	fleet := gpu.NewFleet(0)
	fleet.CardAt(10).SBECounterBroken = true
	js := NewJobSampler(fleet)
	rec := scheduler.Record{ID: 1, Nodes: placement(t, "10")}
	js.Begin(rec.ID, rec.Nodes)
	fleet.CardAt(10).RecordSBE(gpu.L2Cache, 0)
	if s := js.End(&rec); s.SBEDelta != 0 {
		t.Errorf("broken counter leaked %d SBEs into the sample", s.SBEDelta)
	}
}
