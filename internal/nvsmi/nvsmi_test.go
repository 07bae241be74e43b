package nvsmi

import (
	"testing"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/topology"
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

func TestJobSampler(t *testing.T) {
	fleet := gpu.NewFleet(0)
	nodes := []topology.NodeID{10, 11, 12}
	js := NewJobSampler(fleet)

	// Pre-job noise on node 10 must not be attributed to the job.
	fleet.CardAt(10).RecordSBE(gpu.L2Cache, 0)

	rec := Record{ID: 77, User: 3, Nodes: nodes, CoreHours: 30, MaxMemGB: 2, TotalMGBh: 12}
	js.Begin(rec.ID, nodes)
	fleet.CardAt(10).RecordSBE(gpu.L2Cache, 1)
	fleet.CardAt(11).RecordSBE(gpu.DeviceMemory, 2)
	fleet.CardAt(11).RecordSBE(gpu.DeviceMemory, 3)
	// Errors on a node outside the job are invisible to the sample.
	fleet.CardAt(100).RecordSBE(gpu.L2Cache, 4)

	sample := js.End(rec)
	if sample.SBEDelta != 3 {
		t.Errorf("SBE delta = %d, want 3", sample.SBEDelta)
	}
	if sample.PerStructure[gpu.L2Cache] != 1 || sample.PerStructure[gpu.DeviceMemory] != 2 {
		t.Errorf("per-structure = %v", sample.PerStructure)
	}
	if sample.Job != 77 || sample.User != 3 || sample.Nodes != 3 || sample.CoreHours != 30 {
		t.Errorf("metadata not joined: %+v", sample)
	}
	if len(js.before) != 0 {
		t.Error("sampler should drop prologue state after End")
	}
}

func TestJobSamplerBrokenCounter(t *testing.T) {
	fleet := gpu.NewFleet(0)
	fleet.CardAt(10).SBECounterBroken = true
	js := NewJobSampler(fleet)
	rec := Record{ID: 1, Nodes: []topology.NodeID{10}}
	js.Begin(rec.ID, rec.Nodes)
	fleet.CardAt(10).RecordSBE(gpu.L2Cache, 0)
	if s := js.End(rec); s.SBEDelta != 0 {
		t.Errorf("broken counter leaked %d SBEs into the sample", s.SBEDelta)
	}
}
