package dataset

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"titanre/internal/sim"
	"titanre/internal/xid"
)

func tinyResult(t *testing.T) *sim.Result {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = 17
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	cfg.RetirementDriver = cfg.Start
	cfg.SampleWindow = 10 * 24 * time.Hour
	cfg.Workload.Users = 60
	return sim.Run(cfg)
}

func TestWriteLoadRoundTrip(t *testing.T) {
	res := tinyResult(t)
	dir := t.TempDir()
	if err := Write(dir, res); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ConsoleFile, JobsFile, SamplesFile, SnapshotFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("artifact %s missing: %v", name, err)
		}
	}

	back, err := Load(dir, res.Config)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(res.Events) {
		t.Errorf("events %d vs %d", len(back.Events), len(res.Events))
	}
	if len(back.Jobs) != len(res.Jobs) {
		t.Errorf("jobs %d vs %d", len(back.Jobs), len(res.Jobs))
	}
	if len(back.Samples) != len(res.Samples) {
		t.Errorf("samples %d vs %d", len(back.Samples), len(res.Samples))
	}
	if back.Snapshot.TotalSBE() != res.Snapshot.TotalSBE() {
		t.Error("snapshot SBE totals differ")
	}
	if back.Snapshot.TotalDBE() != res.Snapshot.TotalDBE() {
		t.Error("snapshot DBE totals differ")
	}
	if back.NodeHours <= 0 {
		t.Error("node hours not recomputed")
	}
	// Sample node lists must be rejoined from the job log.
	joined := 0
	for _, s := range back.Samples {
		if s.UsedNodes.Len() > 0 {
			joined++
		}
	}
	if joined != len(back.Samples) {
		t.Errorf("only %d of %d samples rejoined to allocations", joined, len(back.Samples))
	}
	// Event codes must survive in aggregate.
	var origDBE, backDBE int
	for _, e := range res.Events {
		if e.Code == xid.DoubleBitError {
			origDBE++
		}
	}
	for _, e := range back.Events {
		if e.Code == xid.DoubleBitError {
			backDBE++
		}
	}
	if origDBE != backDBE {
		t.Errorf("DBE count %d vs %d", backDBE, origDBE)
	}
}

func TestLoadInfersWindow(t *testing.T) {
	res := tinyResult(t)
	dir := t.TempDir()
	if err := Write(dir, res); err != nil {
		t.Fatal(err)
	}
	cfg := res.Config
	cfg.Start = time.Time{}
	cfg.End = time.Time{}
	back, err := Load(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Config.Start.Equal(res.Config.Start) {
		t.Errorf("inferred start %v, want %v", back.Config.Start, res.Config.Start)
	}
	if !back.Config.End.Equal(res.Config.End) {
		t.Errorf("inferred end %v, want %v", back.Config.End, res.Config.End)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope"), sim.DefaultConfig()); err == nil {
		t.Error("missing dataset should fail")
	}
}

func TestLoadMissingArtifact(t *testing.T) {
	res := tinyResult(t)
	dir := t.TempDir()
	if err := Write(dir, res); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, SamplesFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, res.Config); err == nil {
		t.Error("missing samples artifact should fail")
	}
}
