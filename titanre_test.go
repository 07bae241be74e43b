package titanre

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps facade tests fast: one month of production.
func tinyConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	cfg.RetirementDriver = cfg.Start
	cfg.SampleWindow = 10 * 24 * time.Hour
	cfg.Workload.Users = 60
	return cfg
}

func TestFacadeEndToEnd(t *testing.T) {
	study := NewStudy(tinyConfig(5))
	if len(study.Events()) == 0 || len(study.JobLog()) == 0 {
		t.Fatal("empty dataset")
	}
	var sb strings.Builder
	study.WriteReport(&sb)
	if !strings.Contains(sb.String(), "Fig 2") {
		t.Error("report did not render")
	}
	if got := len(study.CheckObservations()); got != 14 {
		t.Errorf("observations = %d, want 14", got)
	}
}

func TestFacadeSimulateAndWrap(t *testing.T) {
	res := Simulate(tinyConfig(6))
	study := StudyFromResult(res)
	if len(study.Events()) != len(res.Events) {
		t.Error("wrap changed the dataset")
	}
}

func TestFacadeConsoleRoundTrip(t *testing.T) {
	res := Simulate(tinyConfig(7))
	var buf bytes.Buffer
	if err := WriteConsoleLog(&buf, res.Events[:100]); err != nil {
		t.Fatal(err)
	}
	events, err := ParseConsoleLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 100 {
		t.Fatalf("parsed %d of 100", len(events))
	}
}

func TestFacadeCatalog(t *testing.T) {
	if len(HardwareErrorTable()) == 0 || len(SoftwareErrorTable()) == 0 {
		t.Fatal("empty catalogs")
	}
	info, ok := LookupXID(DoubleBitErrorXID)
	if !ok || !info.CrashesApp {
		t.Error("DBE lookup wrong")
	}
	if _, ok := LookupXID(12345); ok {
		t.Error("unknown code should fail lookup")
	}
	if SingleBitErrorXID.String() != "SBE" || OffTheBusXID.String() != "OTB" {
		t.Error("synthetic code names wrong")
	}
	if PageRetirementXID != 63 {
		t.Error("page retirement XID wrong")
	}
}

func TestFacadeStats(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 4, 9, 16}
	s, err := Spearman(x, y)
	if err != nil || s.Coefficient != 1 {
		t.Errorf("Spearman = %+v, %v", s, err)
	}
	p, err := Pearson(x, y)
	if err != nil || p.Coefficient >= 1 {
		t.Errorf("Pearson = %+v, %v", p, err)
	}
}

func TestFacadeWorkload(t *testing.T) {
	var params WorkloadParams = DefaultConfig().Workload
	g := NewWorkload(rand.New(rand.NewSource(1)), params)
	start := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := g.GenerateJobs(2, start, start.AddDate(0, 0, 7))
	if len(jobs) == 0 {
		t.Fatal("no jobs generated")
	}
}

func TestFacadeCheckpointPlanning(t *testing.T) {
	mtbf := 20 * time.Hour
	cost := 6 * time.Minute
	y := YoungInterval(mtbf, cost)
	d := DalyInterval(mtbf, cost)
	if y <= 0 || d <= y {
		t.Errorf("young %v, daly %v", y, d)
	}
	st, err := SimulateCheckpoints(10*time.Hour, y, cost, time.Minute, []time.Duration{5 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != 1 || st.Makespan <= 10*time.Hour {
		t.Errorf("stats = %+v", st)
	}
}

func TestFacadePrediction(t *testing.T) {
	res := Simulate(tinyConfig(8))
	incidents := FilterIncidents(res.Events, 5*time.Second)
	if len(incidents) >= len(res.Events) {
		t.Error("filtering should shrink the stream")
	}
	train, test := SplitEventsByTime(incidents, 0.6)
	m := TrainPredictor(train, DefaultPredictorConfig())
	ev := m.Evaluate(test)
	// One month of data is enough to learn the 13->43 rule.
	if len(m.Rules()) == 0 {
		t.Error("no rules learned from a month of incidents")
	}
	if ev.TargetEvents == 0 {
		t.Error("no targets in the held-out stream")
	}
}

func TestFacadeLocationTypes(t *testing.T) {
	var loc Location
	loc.Row, loc.Column, loc.Cage = 2, 3, 1
	n := loc.ID()
	var _ NodeID = n
	if loc.CName() != "c3-2c1s0n0" {
		t.Errorf("cname = %s", loc.CName())
	}
}

func TestFacadeAlerts(t *testing.T) {
	res := Simulate(tinyConfig(9))
	eng := NewAlertEngine(DefaultAlertConfig())
	eng.Run(res.Events)
	if len(eng.Alerts()) == 0 {
		t.Fatal("no alerts on a month of production")
	}
	study := StudyFromResult(res)
	if len(study.Alerts(DefaultAlertConfig())) != len(eng.Alerts()) {
		t.Error("study alert replay disagrees with direct engine")
	}
}
