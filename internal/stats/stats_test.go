package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	c, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(c.Coefficient, 1, 1e-12) {
		t.Errorf("r = %v, want 1", c.Coefficient)
	}
	if c.PValue > 1e-6 {
		t.Errorf("p = %v, want ~0", c.PValue)
	}
}

func TestPearsonAnti(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{4, 3, 2, 1}
	c, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(c.Coefficient, -1, 1e-12) {
		t.Errorf("r = %v, want -1", c.Coefficient)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	// Anscombe's quartet, set I: r = 0.81642.
	x := []float64{10, 8, 13, 9, 11, 14, 6, 4, 12, 7, 5}
	y := []float64{8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68}
	c, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(c.Coefficient, 0.81642, 1e-4) {
		t.Errorf("r = %v, want 0.81642", c.Coefficient)
	}
	// Known two-sided p-value for Anscombe I is ~0.00217.
	if !almost(c.PValue, 0.00217, 5e-4) {
		t.Errorf("p = %v, want ~0.00217", c.PValue)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1, 2}); err != ErrInsufficientData {
		t.Error("n<3 not rejected")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance not rejected")
	}
}

func TestSpearmanMonotonicNonlinear(t *testing.T) {
	// y = x^3 is monotonic: Spearman must be exactly 1 even though
	// Pearson is below 1. This is the paper's reason for preferring
	// Spearman on resource-utilization correlations.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v * v * v
	}
	s, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Coefficient, 1, 1e-12) {
		t.Errorf("spearman = %v, want 1", s.Coefficient)
	}
	p, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p.Coefficient >= s.Coefficient {
		t.Errorf("pearson %v should be below spearman %v on convex data", p.Coefficient, s.Coefficient)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 1, 2, 3}
	y := []float64{10, 10, 20, 30}
	s, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Coefficient, 1, 1e-12) {
		t.Errorf("spearman with ties = %v, want 1", s.Coefficient)
	}
}

func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(xs [12]float64, ys [12]float64) bool {
		x := xs[:]
		y := ys[:]
		c, err := Pearson(x, y)
		if err != nil {
			return true // degenerate draw
		}
		if c.Coefficient < -1-1e-12 || c.Coefficient > 1+1e-12 {
			return false
		}
		if c.PValue < 0 || c.PValue > 1 {
			return false
		}
		s, err := Spearman(x, y)
		if err != nil {
			return true
		}
		return s.Coefficient >= -1-1e-12 && s.Coefficient <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
	// Ties get the average rank.
	r = Ranks([]float64{5, 5, 1})
	if r[0] != 2.5 || r[1] != 2.5 || r[2] != 1 {
		t.Errorf("tie ranks = %v", r)
	}
}

func TestSummaryStats(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Errorf("mean = %v", Mean(x))
	}
	if !almost(StdDev(x), 2.1380899, 1e-6) {
		t.Errorf("stddev = %v", StdDev(x))
	}
	if Quantile(x, 0.5) != 4.5 {
		t.Errorf("median = %v", Quantile(x, 0.5))
	}
	if Quantile([]float64{1, 2, 3}, 0.5) != 2 {
		t.Error("odd median wrong")
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || Quantile(nil, 0.5) != 0 {
		t.Error("empty-slice summaries should be 0")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if Quantile(x, 0) != 1 || Quantile(x, 1) != 5 {
		t.Error("extreme quantiles wrong")
	}
	if Quantile(x, 0.5) != 3 {
		t.Errorf("median quantile = %v", Quantile(x, 0.5))
	}
	if !almost(Quantile(x, 0.25), 2, 1e-12) {
		t.Errorf("q25 = %v", Quantile(x, 0.25))
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestNormalizeToMean(t *testing.T) {
	n := NormalizeToMean([]float64{1, 2, 3})
	if !almost(Mean(n), 1, 1e-12) {
		t.Errorf("normalized mean = %v, want 1", Mean(n))
	}
	z := NormalizeToMean([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero-mean input should pass through")
	}
}

func TestMTBF(t *testing.T) {
	start := time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(1600 * time.Hour)
	times := make([]time.Time, 10)
	for i := range times {
		times[i] = start.Add(time.Duration(i) * 160 * time.Hour)
	}
	m, err := MTBF(times, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if m != 160*time.Hour {
		t.Errorf("MTBF = %v, want 160h", m)
	}
	if _, err := MTBF(nil, start, end); err == nil {
		t.Error("MTBF with no events should fail")
	}
	if _, err := MTBF(times, end, start); err == nil {
		t.Error("MTBF with inverted window should fail")
	}
}

func TestInterArrivals(t *testing.T) {
	base := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	// Deliberately unsorted input.
	times := []time.Time{base.Add(3 * time.Hour), base, base.Add(time.Hour)}
	gaps := InterArrivals(times)
	if len(gaps) != 2 || gaps[0] != time.Hour || gaps[1] != 2*time.Hour {
		t.Errorf("gaps = %v", gaps)
	}
	if InterArrivals(times[:1]) != nil {
		t.Error("single event should yield no gaps")
	}
}

func TestTopOffenders(t *testing.T) {
	counts := map[uint64]int64{1: 100, 2: 50, 3: 100, 4: 1}
	top := TopOffenders(counts, 2)
	if len(top) != 2 || top[0].Key != 1 || top[1].Key != 3 {
		t.Errorf("top = %v (want keys 1,3 by count desc, key asc)", top)
	}
	if len(TopOffenders(counts, 99)) != 4 {
		t.Error("k beyond len should clamp")
	}
	if len(TopOffenders(counts, -1)) != 0 {
		t.Error("negative k should clamp to 0")
	}
}

// TestTopOffendersSelectionMatchesSort: for every k the bounded selection
// returns exactly the prefix a full sort would — same order, same ties
// (heavy on purpose: few distinct counts over many keys).
func TestTopOffendersSelectionMatchesSort(t *testing.T) {
	counts := make(map[uint64]int64)
	state := uint64(11)
	for i := 0; i < 500; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		counts[state>>40] = int64(state >> 33 % 7)
	}
	var want []KeyCount
	for key, c := range counts {
		want = append(want, KeyCount{Key: key, Count: c})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Count != want[j].Count {
			return want[i].Count > want[j].Count
		}
		return want[i].Key < want[j].Key
	})
	for _, k := range []int{-3, 0, 1, 2, 3, 10, 63, 64, 65, len(want) - 1, len(want), len(want) + 1, 1 << 40} {
		got := TopOffenders(counts, k)
		n := min(max(k, 0), len(want))
		if len(got) != n {
			t.Fatalf("k=%d: %d offenders, want %d", k, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: rank %d is %+v, a full sort puts %+v there", k, i, got[i], want[i])
			}
		}
	}
}

func TestSkewRatio(t *testing.T) {
	counts := map[uint64]int64{1: 90, 2: 5, 3: 5}
	if r := SkewRatio(counts, 1); !almost(r, 0.9, 1e-12) {
		t.Errorf("skew = %v, want 0.9", r)
	}
	if SkewRatio(map[uint64]int64{}, 1) != 0 {
		t.Error("empty skew should be 0")
	}
}

func TestStudentTSFSanity(t *testing.T) {
	// For df=10, P(T>1.812) ~ 0.05 (one-sided).
	if p := studentTSF(1.812, 10); !almost(p, 0.05, 0.002) {
		t.Errorf("t sf(1.812, 10) = %v, want ~0.05", p)
	}
	// Symmetry point.
	if p := studentTSF(0, 5); p != 0.5 {
		t.Errorf("t sf(0) = %v, want 0.5", p)
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Error("edge values wrong")
	}
	// I_x(1,1) = x.
	if !almost(regIncBeta(1, 1, 0.37), 0.37, 1e-10) {
		t.Errorf("I_0.37(1,1) = %v", regIncBeta(1, 1, 0.37))
	}
}
