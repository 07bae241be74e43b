package topology

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if Cabinets != 200 {
		t.Errorf("Cabinets = %d, want 200", Cabinets)
	}
	if NodesPerCabinet != 96 {
		t.Errorf("NodesPerCabinet = %d, want 96", NodesPerCabinet)
	}
	if TotalNodes != 19200 {
		t.Errorf("TotalNodes = %d, want 19200", TotalNodes)
	}
	if TotalNodes-ServiceNodes != TotalComputeGPUs {
		t.Errorf("TotalNodes-ServiceNodes = %d, want %d compute GPUs",
			TotalNodes-ServiceNodes, TotalComputeGPUs)
	}
}

func TestLocationIDRoundTrip(t *testing.T) {
	for n := NodeID(0); n < TotalNodes; n++ {
		loc := LocationOf(n)
		if !loc.Valid() {
			t.Fatalf("LocationOf(%d) = %+v invalid", n, loc)
		}
		if got := loc.ID(); got != n {
			t.Fatalf("LocationOf(%d).ID() = %d", n, got)
		}
	}
}

func TestIDFromLocationExhaustiveCorners(t *testing.T) {
	cases := []struct {
		loc  Location
		want NodeID
	}{
		{Location{0, 0, 0, 0, 0}, 0},
		{Location{0, 0, 0, 0, 3}, 3},
		{Location{0, 0, 0, 1, 0}, 4},
		{Location{0, 0, 1, 0, 0}, 32},
		{Location{0, 1, 0, 0, 0}, 96},
		{Location{1, 0, 0, 0, 0}, 96 * 8},
		{Location{Rows - 1, Columns - 1, 2, 7, 3}, TotalNodes - 1},
	}
	for _, c := range cases {
		if got := c.loc.ID(); got != c.want {
			t.Errorf("%+v.ID() = %d, want %d", c.loc, got, c.want)
		}
	}
}

func TestCNameRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		n := NodeID(raw % TotalNodes)
		loc := LocationOf(n)
		parsed, err := ParseCName(loc.CName())
		return err == nil && parsed == loc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCNameExamples(t *testing.T) {
	loc, err := ParseCName("c3-2c1s4n2")
	if err != nil {
		t.Fatal(err)
	}
	want := Location{Row: 2, Column: 3, Cage: 1, Blade: 4, Node: 2}
	if loc != want {
		t.Errorf("got %+v, want %+v", loc, want)
	}
}

func TestParseCNameErrors(t *testing.T) {
	bad := []string{
		"", "c", "x3-2c1s4n2", "c3", "c3-2", "c3-2c1", "c3-2c1s4",
		"c3-2c1s4n", "c3-2c1s4nq", "cq-2c1s4n2", "c3-qc1s4n2",
		"c8-2c1s4n2",  // column out of range
		"c3-25c1s4n2", // row out of range
		"c3-2c3s4n2",  // cage out of range
		"c3-2c1s8n2",  // blade out of range
		"c3-2c1s4n4",  // node out of range
	}
	for _, s := range bad {
		if _, err := ParseCName(s); err == nil {
			t.Errorf("ParseCName(%q) accepted malformed input", s)
		}
	}
}

func TestParseNodeID(t *testing.T) {
	n, err := ParseNodeID("c0-0c0s0n1")
	if err != nil || n != 1 {
		t.Errorf("ParseNodeID = %d, %v; want 1, nil", n, err)
	}
	if _, err := ParseNodeID("bogus"); err == nil {
		t.Error("ParseNodeID accepted bogus input")
	}
}

// TestRouterPairing: two adjacent nodes on a blade (n and n^1) share one
// Gemini router, so one torus coordinate; the blade's other pair has its
// own.
func TestRouterPairing(t *testing.T) {
	for n := NodeID(0); n < 64; n++ {
		if GeminiCoord(n) != GeminiCoord(n^1) {
			t.Fatalf("node %d and its neighbour %d on different routers", n, n^1)
		}
	}
	if GeminiCoord(0) == GeminiCoord(2) {
		t.Error("nodes 0 and 2 must be on different routers")
	}
}

func TestAllIteration(t *testing.T) {
	count := 0
	All(func(NodeID) bool { count++; return true })
	if count != TotalNodes {
		t.Errorf("All visited %d nodes, want %d", count, TotalNodes)
	}
	count = 0
	All(func(NodeID) bool { count++; return count < 10 })
	if count != 10 {
		t.Errorf("early stop visited %d, want 10", count)
	}
}

// cabinetNodes is the dense ids of cabinet c's slots: ids are
// cabinet-major, which TestCabinetNodes holds LocationOf to (the store's
// rollup derives a row's cabinet as node / NodesPerCabinet).
func cabinetNodes(c int) []NodeID {
	nodes := make([]NodeID, NodesPerCabinet)
	for i := range nodes {
		nodes[i] = NodeID(c*NodesPerCabinet + i)
	}
	return nodes
}

func TestCabinetNodes(t *testing.T) {
	for _, c := range []int{0, 5, Cabinets - 1} {
		for _, n := range cabinetNodes(c) {
			if got := LocationOf(n).Cabinet(); got != c {
				t.Fatalf("node %d reported in cabinet %d, want %d", n, got, c)
			}
		}
	}
}

func TestTorusRoundTrip(t *testing.T) {
	seen := make([]bool, TotalNodes)
	for i := 0; i < TotalNodes; i++ {
		n := NodeAtTorusIndex(i)
		if !n.Valid() {
			t.Fatalf("NodeAtTorusIndex(%d) = %d invalid", i, n)
		}
		if seen[n] {
			t.Fatalf("NodeAtTorusIndex not injective at %d", i)
		}
		seen[n] = true
		if got := TorusIndex(n); got != i {
			t.Fatalf("TorusIndex(NodeAtTorusIndex(%d)) = %d", i, got)
		}
	}
}

func TestFoldedTorusAlternatesCabinets(t *testing.T) {
	// Walking consecutive torus cabinets along a row must visit physical
	// columns 0,2,4,6,7,5,3,1 — i.e. all even columns then all odd ones.
	wantCols := []int{0, 2, 4, 6, 7, 5, 3, 1}
	for pos, want := range wantCols {
		n := NodeAtTorusIndex(pos * NodesPerCabinet)
		loc := LocationOf(n)
		if loc.Column != want || loc.Row != 0 {
			t.Errorf("torus cabinet %d at row %d col %d, want row 0 col %d",
				pos, loc.Row, loc.Column, want)
		}
	}
}

// TestTorusOrderIsPermutation: walking the folded-torus positions, as
// the scheduler's allocator does, visits every node slot exactly once.
func TestTorusOrderIsPermutation(t *testing.T) {
	seen := make([]bool, TotalNodes)
	for idx := 0; idx < TotalNodes; idx++ {
		n := NodeAtTorusIndex(idx)
		if seen[n] {
			t.Fatalf("node %d at two torus positions", n)
		}
		seen[n] = true
	}
}

func TestThermalGradient(t *testing.T) {
	d := CageTempF(CagesPerCabinet-1) - CageTempF(0)
	if d <= 10 {
		t.Errorf("top-bottom cage delta = %.1fF, want > 10F per the paper", d)
	}
	// Per-node temperatures must stay near their cage mean.
	for n := NodeID(0); n < 4*NodesPerCabinet; n++ {
		temp := NodeTempF(n)
		mean := CageTempF(CageOf(n))
		if temp < mean-4 || temp > mean+4 {
			t.Fatalf("node %d temp %.1f too far from cage mean %.1f", n, temp, mean)
		}
	}
}

func TestThermalAcceleration(t *testing.T) {
	bottom := Location{Row: 0, Column: 0, Cage: 0, Blade: 0, Node: 0}.ID()
	top := Location{Row: 0, Column: 0, Cage: 2, Blade: 0, Node: 0}.ID()
	ab := ThermalAcceleration(bottom, 10)
	at := ThermalAcceleration(top, 10)
	if at <= ab {
		t.Errorf("top cage acceleration %.3f not above bottom %.3f", at, ab)
	}
	if ThermalAcceleration(top, 0) != 1 {
		t.Error("zero doubling delta must disable acceleration")
	}
	// Rate should roughly double per 10F: top cage is ~11F hotter.
	if at < 1.5 || at > 4 {
		t.Errorf("top cage acceleration %.3f outside plausible [1.5,4]", at)
	}
}

func TestNodeTempFDeterministic(t *testing.T) {
	for n := NodeID(0); n < 100; n++ {
		if NodeTempF(n) != NodeTempF(n) {
			t.Fatal("NodeTempF not deterministic")
		}
	}
}

func TestGeminiDimensions(t *testing.T) {
	if TorusX*TorusY*TorusZ != TotalNodes/NodesPerRouter {
		t.Fatalf("torus volume %d != router count %d", TorusX*TorusY*TorusZ, TotalNodes/NodesPerRouter)
	}
	seen := map[TorusCoord]int{}
	for n := NodeID(0); n < TotalNodes; n++ {
		c := GeminiCoord(n)
		if c.X < 0 || c.X >= TorusX || c.Y < 0 || c.Y >= TorusY || c.Z < 0 || c.Z >= TorusZ {
			t.Fatalf("coord out of range: %+v", c)
		}
		seen[c]++
	}
	if len(seen) != TorusX*TorusY*TorusZ {
		t.Fatalf("distinct coords = %d, want %d", len(seen), TorusX*TorusY*TorusZ)
	}
	for c, n := range seen {
		if n != NodesPerRouter {
			t.Fatalf("coord %+v serves %d nodes, want %d", c, n, NodesPerRouter)
		}
	}
}

func TestRouterPairSharesCoord(t *testing.T) {
	for n := NodeID(0); n < 4*NodesPerCabinet; n++ {
		if GeminiCoord(n) != GeminiCoord(n^1) {
			t.Fatalf("node %d and its router peer have different coords", n)
		}
	}
}

func TestHopDistance(t *testing.T) {
	a := TorusCoord{0, 0, 0}
	if HopDistance(a, a) != 0 {
		t.Error("self distance must be 0")
	}
	if d := HopDistance(a, TorusCoord{1, 1, 1}); d != 3 {
		t.Errorf("unit offsets = %d, want 3", d)
	}
	// Wraparound: X distance from 0 to 24 is 1 on a 25-torus.
	if d := HopDistance(a, TorusCoord{24, 0, 0}); d != 1 {
		t.Errorf("wrap distance = %d, want 1", d)
	}
	if d := HopDistance(a, TorusCoord{12, 0, 0}); d != 12 {
		t.Errorf("half-way distance = %d, want 12", d)
	}
	// Symmetry.
	b := TorusCoord{7, 13, 20}
	if HopDistance(a, b) != HopDistance(b, a) {
		t.Error("distance not symmetric")
	}
}

func TestFoldedNeighborsAreOneHop(t *testing.T) {
	// Consecutive torus cabinets along a row (alternating physical
	// columns) must be Y-adjacent: 2 hops between their first blades
	// (Y differs by 2 since each cabinet spans two Y slices).
	n0 := NodeAtTorusIndex(0)
	n1 := NodeAtTorusIndex(NodesPerCabinet)
	c0, c1 := GeminiCoord(n0), GeminiCoord(n1)
	if d := HopDistance(c0, c1); d != 2 {
		t.Errorf("consecutive torus cabinets %d hops apart, want 2 (Y-adjacent)", d)
	}
	// Physically adjacent columns 0 and 1 are at the two ends of the
	// fold: far apart in Y.
	nA := Location{Row: 0, Column: 0}.ID()
	nB := Location{Row: 0, Column: 1}.ID()
	if d := HopDistance(GeminiCoord(nA), GeminiCoord(nB)); d < 2 {
		t.Errorf("physically adjacent columns only %d hops apart; the fold should separate them", d)
	}
}

func TestMeanPairwiseHops(t *testing.T) {
	// A whole cabinet is compact: max Z spread 23, same X/Y-pair.
	cab := cabinetNodes(0)
	compact := MeanPairwiseHops(cab, 200)
	if compact <= 0 || compact > 10 {
		t.Errorf("cabinet mean hops = %.1f", compact)
	}
	// Nodes scattered across rows are far apart.
	var scattered []NodeID
	for r := 0; r < Rows; r++ {
		scattered = append(scattered, Location{Row: r, Column: (r * 3) % Columns}.ID())
	}
	far := MeanPairwiseHops(scattered, 200)
	if far <= compact {
		t.Errorf("scattered mean hops %.1f not above compact %.1f", far, compact)
	}
	if MeanPairwiseHops(cab[:1], 200) != 0 {
		t.Error("single node has no pairs")
	}
	// Sampled path agrees roughly with exact on a mid-size set.
	exact := MeanPairwiseHops(cab, 200)
	sampled := MeanPairwiseHops(cab, 10)
	if sampled <= 0 || exact <= 0 {
		t.Fatal("degenerate measurements")
	}
	if ratio := sampled / exact; ratio < 0.5 || ratio > 2 {
		t.Errorf("sampled/exact = %.2f, too far apart", ratio)
	}
}
