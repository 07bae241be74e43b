package checkpoint

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"titanre/internal/gpu"
)

func TestYoungInterval(t *testing.T) {
	// sqrt(2 * 0.1h * 20h) = 2h.
	got := YoungInterval(20*time.Hour, 6*time.Minute)
	if math.Abs(got.Hours()-2) > 1e-9 {
		t.Errorf("young = %v, want 2h", got)
	}
	if YoungInterval(0, time.Minute) != 0 || YoungInterval(time.Hour, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestDalyAboveYoung(t *testing.T) {
	mtbf := 20 * time.Hour
	cost := 6 * time.Minute
	y := YoungInterval(mtbf, cost)
	d := DalyInterval(mtbf, cost)
	if d <= y {
		t.Errorf("daly %v should exceed young %v for finite MTBF", d, y)
	}
	// Degenerate regime.
	if DalyInterval(time.Minute, 10*time.Hour) != 10*time.Hour {
		t.Error("degenerate daly should checkpoint back to back")
	}
}

func TestSimulateNoFailures(t *testing.T) {
	// 10h of work, 2h interval, 6min checkpoints: 4 checkpoints (the
	// final segment needs no checkpoint), makespan 10h + 4*0.1h.
	st, err := Simulate(10*time.Hour, 2*time.Hour, 6*time.Minute, 10*time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 4 {
		t.Errorf("checkpoints = %d, want 4", st.Checkpoints)
	}
	want := 10*time.Hour + 4*6*time.Minute
	if st.Makespan != want {
		t.Errorf("makespan = %v, want %v", st.Makespan, want)
	}
	if st.Failures != 0 || st.LostWork != 0 {
		t.Error("no failures expected")
	}
	if math.Abs(st.Efficiency-10/st.Makespan.Hours()) > 1e-12 {
		t.Errorf("efficiency = %v", st.Efficiency)
	}
}

func TestSimulateSingleFailure(t *testing.T) {
	// Failure at t=3h: one checkpoint completed at 2h06m, so the work
	// since then (54 min) is lost; restart 10 min.
	st, err := Simulate(4*time.Hour, 2*time.Hour, 6*time.Minute, 10*time.Minute,
		[]time.Duration{3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != 1 {
		t.Fatalf("failures = %d", st.Failures)
	}
	if st.LostWork != 54*time.Minute {
		t.Errorf("lost work = %v, want 54m", st.LostWork)
	}
	// Timeline: 0..2h work, 2h..2h06 ckpt, 2h06..3h work (lost), restart
	// to 3h10, then 2h remaining work; no trailing checkpoint.
	want := 3*time.Hour + 10*time.Minute + 2*time.Hour
	if st.Makespan != want {
		t.Errorf("makespan = %v, want %v", st.Makespan, want)
	}
}

func TestSimulateFailureDuringCheckpoint(t *testing.T) {
	// Failure at 2h03m, i.e. during the first checkpoint: the whole
	// first segment is lost.
	st, err := Simulate(3*time.Hour, 2*time.Hour, 6*time.Minute, 0,
		[]time.Duration{2*time.Hour + 3*time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != 1 {
		t.Fatalf("failures = %d", st.Failures)
	}
	if st.LostWork != 2*time.Hour+3*time.Minute {
		t.Errorf("lost = %v", st.LostWork)
	}
	if st.Checkpoints != 1 {
		// After restart: 2h work + ckpt + 1h tail.
		t.Errorf("checkpoints = %d, want 1", st.Checkpoints)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(0, time.Hour, time.Minute, 0, nil); err == nil {
		t.Error("zero work should fail")
	}
	if _, err := Simulate(time.Hour, 0, time.Minute, 0, nil); err == nil {
		t.Error("zero interval should fail")
	}
}

func TestSimulateRepeatedFailures(t *testing.T) {
	// Failures every 30 minutes forever would prevent progress with a
	// 1h interval; the trace is finite so the run completes after the
	// trace is exhausted.
	var failures []time.Duration
	for i := 1; i <= 20; i++ {
		failures = append(failures, time.Duration(i)*30*time.Minute)
	}
	st, err := Simulate(2*time.Hour, time.Hour, time.Minute, time.Minute, failures)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures == 0 {
		t.Error("expected failures to strike")
	}
	if st.Makespan <= 2*time.Hour {
		t.Error("makespan must exceed the useful work")
	}
}

// poissonTrace draws a synthetic failure trace with the given MTBF over
// a horizon from a uniform [0,1) source: the fixture the interval sweep
// below runs against, itself checked by TestPoissonTrace.
func poissonTrace(mtbf, horizon time.Duration, uniform func() float64) []time.Duration {
	if mtbf <= 0 || horizon <= 0 {
		return nil
	}
	var out []time.Duration
	t := time.Duration(0)
	for {
		u := uniform()
		for u == 0 {
			u = uniform()
		}
		t += time.Duration(-math.Log(u) * float64(mtbf))
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

func TestSweepFindsReasonableOptimum(t *testing.T) {
	// Against a Poisson trace with MTBF 8h, the empirical optimum of a
	// 48h job should be near Young's interval, and much better than
	// extreme intervals.
	rng := rand.New(rand.NewSource(5))
	mtbf := 8 * time.Hour
	cost := 5 * time.Minute
	var traces [][]time.Duration
	for i := 0; i < 20; i++ {
		traces = append(traces, poissonTrace(mtbf, 500*time.Hour, rng.Float64))
	}
	intervals := []time.Duration{
		10 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour,
		4 * time.Hour, 8 * time.Hour, 16 * time.Hour,
	}
	// Average makespans across traces per interval.
	avg := make(map[time.Duration]float64)
	for _, tr := range traces {
		for _, iv := range intervals {
			st, err := Simulate(48*time.Hour, iv, cost, 10*time.Minute, tr)
			if err != nil {
				t.Fatal(err)
			}
			avg[iv] += st.Makespan.Hours()
		}
	}
	best := intervals[0]
	for _, iv := range intervals {
		if avg[iv] < avg[best] {
			best = iv
		}
	}
	young := YoungInterval(mtbf, cost)
	if best < young/4 || best > young*4 {
		t.Errorf("empirical optimum %v too far from young %v", best, young)
	}
	if avg[best] >= avg[16*time.Hour] {
		t.Error("optimum should beat checkpointing every 16h under MTBF 8h")
	}
	if avg[best] >= avg[10*time.Minute] {
		t.Error("optimum should beat checkpointing every 10 minutes")
	}
}

func TestExpectedWaste(t *testing.T) {
	mtbf := 20 * time.Hour
	cost := 6 * time.Minute
	y := YoungInterval(mtbf, cost)
	wy := ExpectedWaste(y, cost, mtbf)
	// Waste at the optimum must be below nearby intervals.
	if ExpectedWaste(y/2, cost, mtbf) <= wy || ExpectedWaste(y*2, cost, mtbf) <= wy {
		t.Error("young's interval should minimize first-order waste")
	}
	if !math.IsInf(ExpectedWaste(0, cost, mtbf), 1) {
		t.Error("degenerate waste should be +Inf")
	}
}

func TestPoissonTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trace := poissonTrace(2*time.Hour, 2000*time.Hour, rng.Float64)
	if len(trace) < 800 || len(trace) > 1200 {
		t.Errorf("trace has %d failures, want ~1000", len(trace))
	}
	for i, f := range trace {
		if f < 0 || f >= 2000*time.Hour {
			t.Fatal("failure outside horizon")
		}
		if i > 0 && f < trace[i-1] {
			t.Fatal("trace not ordered")
		}
	}
	if poissonTrace(0, time.Hour, rng.Float64) != nil {
		t.Error("degenerate trace should be nil")
	}
}

func TestProject(t *testing.T) {
	// Titan-like: machine MTBF ~50 h over 18,688 GPUs.
	perGPU := 1.0 / 50.0 / 18688.0
	titan := Project(perGPU, 18688, 10*time.Minute)
	if math.Abs(titan.SystemMTBF.Hours()-50) > 0.1 {
		t.Errorf("titan MTBF = %v", titan.SystemMTBF)
	}
	exa := Project(perGPU, 100000, 10*time.Minute)
	// 5.35x more GPUs -> 5.35x lower MTBF.
	if ratio := titan.SystemMTBF.Hours() / exa.SystemMTBF.Hours(); math.Abs(ratio-100000.0/18688.0) > 0.01 {
		t.Errorf("MTBF ratio = %v", ratio)
	}
	// Overhead grows with machine size.
	if exa.Overhead <= titan.Overhead {
		t.Errorf("exascale overhead %v not above titan %v", exa.Overhead, titan.Overhead)
	}
	if exa.Interval >= titan.Interval {
		t.Error("bigger machine needs shorter checkpoint intervals")
	}
	// Degenerate inputs.
	if p := Project(0, 100, time.Minute); p.SystemMTBF != 0 {
		t.Error("zero rate should project zero")
	}
}

func TestRateScaleAfterImprovement(t *testing.T) {
	// Fig 3(c): 86% device memory, 14% register file. A 10x register
	// file improvement removes 12.6 points of the rate.
	breakdown := map[gpu.Structure]int{
		gpu.DeviceMemory: 86,
		gpu.RegisterFile: 14,
	}
	scale := RateScaleAfterImprovement(breakdown, map[gpu.Structure]float64{gpu.RegisterFile: 10})
	want := (86.0 + 1.4) / 100.0
	if math.Abs(scale-want) > 1e-12 {
		t.Errorf("scale = %v, want %v", scale, want)
	}
	if RateScaleAfterImprovement(nil, nil) != 1 {
		t.Error("empty breakdown should scale by 1")
	}
	if s := RateScaleAfterImprovement(breakdown, nil); s != 1 {
		t.Errorf("no improvements should scale by 1, got %v", s)
	}
}
