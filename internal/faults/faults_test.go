package faults

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

func newRNG() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestExponentialMean(t *testing.T) {
	rng := newRNG()
	const rate = 0.5
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += Exponential(rng, rate)
	}
	mean := sum / n
	if math.Abs(mean-2) > 0.1 {
		t.Errorf("mean = %v, want ~2", mean)
	}
	if !math.IsInf(Exponential(rng, 0), 1) {
		t.Error("zero rate should give +Inf")
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := newRNG()
	for _, mean := range []float64{0.5, 3, 25, 100, 5000} {
		var sum float64
		const n = 5000
		for i := 0; i < n; i++ {
			sum += float64(Poisson(rng, mean))
		}
		got := sum / n
		tol := 5 * math.Sqrt(mean/n) * 2
		if math.Abs(got-mean) > tol+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := newRNG()
	var above, below int
	for i := 0; i < 10000; i++ {
		if LogNormal(rng, 1, 2) > math.E {
			above++
		} else {
			below++
		}
	}
	if math.Abs(float64(above-below)) > 500 {
		t.Errorf("median split %d/%d, want ~balanced around e^mu", above, below)
	}
}

func TestWeibullShape1IsExponential(t *testing.T) {
	rng := newRNG()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += Weibull(rng, 2, 1)
	}
	if math.Abs(sum/n-2) > 0.1 {
		t.Errorf("Weibull(2,1) mean = %v, want ~2", sum/n)
	}
}

func TestGeometricMean(t *testing.T) {
	rng := newRNG()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(Geometric(rng, 0.25))
	}
	if math.Abs(sum/n-3) > 0.2 {
		t.Errorf("Geometric(0.25) mean = %v, want ~3", sum/n)
	}
	if Geometric(rng, 1) != 0 {
		t.Error("p=1 should give 0")
	}
}

func TestCategorical(t *testing.T) {
	rng := newRNG()
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[Categorical(rng, []float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Error("zero-weight bucket hit")
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("ratio = %v, want ~3", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("all-zero weights should panic")
		}
	}()
	Categorical(rng, []float64{0, 0})
}

func TestWeightedPicker(t *testing.T) {
	rng := newRNG()
	p := NewWeightedPicker([]float64{0, 2, 0, 6, 0})
	counts := make([]int, 5)
	for i := 0; i < 40000; i++ {
		counts[p.Pick(rng)]++
	}
	if counts[0] != 0 || counts[2] != 0 || counts[4] != 0 {
		t.Errorf("zero-weight picks: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("ratio = %v, want ~3", ratio)
	}
	if p.Total() != 8 {
		t.Errorf("total = %v", p.Total())
	}
}

func TestNodeProcessRateAndOrder(t *testing.T) {
	rng := newRNG()
	start := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(1000 * time.Hour)
	p := &NodeProcess{RatePerHour: 0.1, Weights: UniformComputeWeights()}
	arr := p.Generate(rng, start, end)
	if len(arr) < 60 || len(arr) > 145 {
		t.Errorf("got %d arrivals, want ~100", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].Time.Before(arr[i-1].Time) {
			t.Fatal("arrivals out of order")
		}
	}
	for _, a := range arr {
		if int(a.Node) >= topology.TotalComputeGPUs {
			t.Fatal("arrival on service node")
		}
		if a.Time.Before(start) || !a.Time.Before(end) {
			t.Fatal("arrival outside window")
		}
	}
}

func TestNodeProcessEpochGating(t *testing.T) {
	rng := newRNG()
	start := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	mid := start.Add(500 * time.Hour)
	end := start.Add(1000 * time.Hour)
	p := &NodeProcess{
		RatePerHour: 0.2,
		Weights:     UniformComputeWeights(),
		Epochs:      []Epoch{{Start: start, End: mid, Factor: 10}, {Start: mid, End: end, Factor: 0}},
	}
	arr := p.Generate(rng, start, end)
	var before, after int
	for _, a := range arr {
		if a.Time.Before(mid) {
			before++
		} else {
			after++
		}
	}
	if after != 0 {
		t.Errorf("%d arrivals after zero-factor epoch", after)
	}
	if before < 700 || before > 1300 {
		t.Errorf("before = %d, want ~1000", before)
	}
}

func TestNodeProcessThermalTilt(t *testing.T) {
	rng := newRNG()
	start := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(3000 * time.Hour)
	p := &NodeProcess{RatePerHour: 1, Weights: ThermalComputeWeights(10)}
	arr := p.Generate(rng, start, end)
	cage := make([]int, topology.CagesPerCabinet)
	for _, a := range arr {
		cage[topology.CageOf(a.Node)]++
	}
	if !(cage[2] > cage[1] && cage[1] > cage[0]) {
		t.Errorf("cage counts %v should increase with height", cage)
	}
}

func TestNodeProcessCluster(t *testing.T) {
	rng := newRNG()
	start := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(2000 * time.Hour)
	base := &NodeProcess{RatePerHour: 0.05, Weights: UniformComputeWeights()}
	clustered := &NodeProcess{
		RatePerHour: 0.05, Weights: UniformComputeWeights(),
		Cluster: 3, ClusterSpread: time.Hour,
	}
	nBase := len(base.Generate(rng, start, end))
	nClust := len(clustered.Generate(rng, start, end))
	if nClust < 2*nBase {
		t.Errorf("clustered process should multiply counts: base %d, clustered %d", nBase, nClust)
	}
}

func TestNodeProcessEmpty(t *testing.T) {
	rng := newRNG()
	start := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	p := &NodeProcess{RatePerHour: 0, Weights: UniformComputeWeights()}
	if p.Generate(rng, start, start.Add(time.Hour)) != nil {
		t.Error("zero rate should yield nil")
	}
	q := &NodeProcess{RatePerHour: 1, Weights: UniformComputeWeights()}
	if q.Generate(rng, start, start) != nil {
		t.Error("empty window should yield nil")
	}
}

func TestAssignProfilesSkew(t *testing.T) {
	rng := newRNG()
	params := DefaultProfileParams()
	profiles := AssignProfiles(rng, topology.TotalComputeGPUs, params)
	susceptible := 0
	var rates []float64
	for _, p := range profiles {
		if p.SBERatePerActiveHour > 0 {
			susceptible++
			rates = append(rates, p.SBERatePerActiveHour)
		}
		if p.DBEWeight <= 0 {
			t.Fatal("DBE weight must be positive")
		}
	}
	frac := float64(susceptible) / float64(len(profiles))
	if frac < 0.03 || frac > 0.07 {
		t.Errorf("susceptible fraction = %v, want ~0.048 (<5%% of cards ever see an SBE)", frac)
	}
	// The offender tail: the top 10 susceptible cards must carry a
	// large share of the total rate.
	var total float64
	for _, r := range rates {
		total += r
	}
	top := append([]float64(nil), rates...)
	for i := 0; i < 10; i++ {
		maxIdx := i
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[maxIdx] {
				maxIdx = j
			}
		}
		top[i], top[maxIdx] = top[maxIdx], top[i]
	}
	var top10 float64
	for i := 0; i < 10 && i < len(top); i++ {
		top10 += top[i]
	}
	if top10/total < 0.25 {
		t.Errorf("top-10 rate share = %v, want heavy skew (>0.25)", top10/total)
	}
}

func TestGammaMean1(t *testing.T) {
	rng := newRNG()
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += gammaMean1(rng, 3)
	}
	if math.Abs(sum/n-1) > 0.05 {
		t.Errorf("gammaMean1 mean = %v, want 1", sum/n)
	}
	if gammaMean1(rng, 0) != 1 {
		t.Error("shape<=0 should return 1")
	}
	// Shape below 1 exercises the boost path.
	var sum2 float64
	for i := 0; i < n; i++ {
		sum2 += gammaMean1(rng, 0.5)
	}
	if math.Abs(sum2/n-1) > 0.1 {
		t.Errorf("gammaMean1(0.5) mean = %v, want 1", sum2/n)
	}
}

func TestStructureWeights(t *testing.T) {
	sbe := SBEStructureWeights()
	if sbe[gpu.L2Cache] <= sbe[gpu.DeviceMemory] {
		t.Error("most SBEs must land in the L2 cache (Observation 11)")
	}
	dbe := DBEStructureWeights()
	if math.Abs(dbe[gpu.DeviceMemory]-0.86) > 1e-9 || math.Abs(dbe[gpu.RegisterFile]-0.14) > 1e-9 {
		t.Errorf("DBE weights = %v, want 86/14 split", dbe)
	}
	for i, w := range dbe {
		s := gpu.Structure(i)
		if s != gpu.DeviceMemory && s != gpu.RegisterFile && w != 0 {
			t.Errorf("DBE weight for %v should be 0", s)
		}
	}
}

func TestCascadeRules(t *testing.T) {
	rng := newRNG()
	rules := DefaultCascadeRules()
	// XID 48 -> 45 with p=0.7.
	fired := 0
	const n = 5000
	for i := 0; i < n; i++ {
		children := Expand(rng, rules, xid.DoubleBitError)
		for _, c := range children {
			if c.Code != xid.PreemptiveCleanup {
				t.Fatalf("unexpected child %v of DBE", c.Code)
			}
			if c.Delay < 2*time.Second || c.Delay >= 90*time.Second {
				t.Fatalf("delay %v outside rule bounds", c.Delay)
			}
			fired++
		}
	}
	p := float64(fired) / n
	if math.Abs(p-0.7) > 0.05 {
		t.Errorf("DBE->45 fired at %v, want ~0.7", p)
	}
	// Isolated codes spawn nothing.
	for i := 0; i < 100; i++ {
		if len(Expand(rng, rules, xid.OffTheBus)) != 0 {
			t.Fatal("OTB must be isolated")
		}
		if len(Expand(rng, rules, xid.DriverFirmwareError)) != 0 {
			t.Fatal("XID 38 must be isolated")
		}
	}
	// XID 13 children are XID 43 only.
	for i := 0; i < 200; i++ {
		for _, c := range Expand(rng, rules, xid.GraphicsEngineException) {
			if c.Code != xid.GPUStoppedProcessing {
				t.Fatalf("unexpected child %v of XID 13", c.Code)
			}
		}
	}
}

func TestRateAt(t *testing.T) {
	t0 := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	epochs := []Epoch{
		{Start: t0, End: t0.Add(10 * time.Hour), Factor: 2},
		{Start: t0.Add(5 * time.Hour), End: t0.Add(15 * time.Hour), Factor: 3},
	}
	if f := rateAt(epochs, t0); f != 2 {
		t.Errorf("f(0h) = %v, want 2", f)
	}
	if f := rateAt(epochs, t0.Add(7*time.Hour)); f != 6 {
		t.Errorf("f(7h) = %v, want 6 (overlap multiplies)", f)
	}
	if f := rateAt(epochs, t0.Add(12*time.Hour)); f != 3 {
		t.Errorf("f(12h) = %v, want 3", f)
	}
	if f := rateAt(epochs, t0.Add(20*time.Hour)); f != 1 {
		t.Errorf("f(20h) = %v, want 1", f)
	}
}

func TestDecayEpochs(t *testing.T) {
	start := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	epochs := DecayEpochs(start, 8, 30*24*time.Hour)
	if len(epochs) != 3 {
		t.Fatalf("epochs = %d, want 3 (8 -> 4 -> 2 -> done)", len(epochs))
	}
	if epochs[0].Factor != 8 || epochs[1].Factor != 4 || epochs[2].Factor != 2 {
		t.Errorf("factors = %v %v %v", epochs[0].Factor, epochs[1].Factor, epochs[2].Factor)
	}
	for i := 1; i < len(epochs); i++ {
		if !epochs[i].Start.Equal(epochs[i-1].End) {
			t.Error("epochs must tile contiguously")
		}
	}
	if DecayEpochs(start, 1, time.Hour) != nil {
		t.Error("amplitude 1 should produce no epochs")
	}
}
