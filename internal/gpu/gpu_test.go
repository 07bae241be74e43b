package gpu

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"titanre/internal/topology"
)

func TestArchitecturalConstants(t *testing.T) {
	if CUDACores != 2688 {
		t.Errorf("CUDACores = %d, want 2688", CUDACores)
	}
	if SMs != 14 {
		t.Errorf("SMs = %d, want 14", SMs)
	}
	if DeviceMemoryBytes != 6<<30 {
		t.Errorf("device memory = %d", DeviceMemoryBytes)
	}
	if L2CacheBytes != 1536<<10 {
		t.Errorf("L2 = %d", L2CacheBytes)
	}
}

func TestProtectionMap(t *testing.T) {
	// Register files, shared memory, L1 and L2 caches and device memory
	// are SECDED protected; the read-only data cache is parity protected.
	want := map[Structure]Protection{
		DeviceMemory:  SECDED,
		L2Cache:       SECDED,
		RegisterFile:  SECDED,
		L1Shared:      SECDED,
		ReadOnlyData:  Parity,
		TextureMemory: SECDED,
	}
	for s, p := range want {
		if got := InfoOf(s).Protection; got != p {
			t.Errorf("%v protection = %v, want %v", s, got, p)
		}
	}
}

func TestInfoOfPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InfoOf(unknown) should panic")
		}
	}()
	InfoOf(Structure(99))
}

func TestClassify(t *testing.T) {
	if Classify(DeviceMemory, 1) != Corrected {
		t.Error("SBE in device memory must be corrected")
	}
	if Classify(DeviceMemory, 2) != Detected {
		t.Error("DBE in device memory must be detected")
	}
	if Classify(ReadOnlyData, 1) != Detected {
		t.Error("parity structure detects but never corrects")
	}
	if Classify(RegisterFile, 3) != Detected {
		t.Error("multi-bit in SECDED structure must be detected")
	}
}

func TestStringerCoverage(t *testing.T) {
	for _, si := range Structures() {
		if si.Structure.String() == "" || strings.HasPrefix(si.Structure.String(), "Structure(") {
			t.Errorf("missing name for structure %d", int(si.Structure))
		}
	}
	if !strings.HasPrefix(Structure(99).String(), "Structure(") {
		t.Error("unknown structure should render numerically")
	}
	if SECDED.String() != "SECDED ECC" || Parity.String() != "parity" || Unprotected.String() != "unprotected" {
		t.Error("Protection strings wrong")
	}
	if !strings.HasPrefix(Protection(9).String(), "Protection(") {
		t.Error("unknown protection should render numerically")
	}
	for _, o := range []ECCOutcome{Corrected, Detected, Silent} {
		if strings.HasPrefix(o.String(), "ECCOutcome(") {
			t.Errorf("missing name for outcome %d", int(o))
		}
	}
	if !strings.HasPrefix(ECCOutcome(9).String(), "ECCOutcome(") {
		t.Error("unknown outcome should render numerically")
	}
	if Serial(7).String() != "GPU-00000007" {
		t.Errorf("serial format = %q", Serial(7).String())
	}
	if RetiredByDBE.String() == RetiredByTwoSBE.String() {
		t.Error("retire causes must render distinctly")
	}
}

func TestRetirementDisabledBeforeEpoch(t *testing.T) {
	c := NewCard(1)
	if c.RecordSBE(DeviceMemory, 10) {
		t.Error("retirement fired while disabled")
	}
	if c.RecordSBE(DeviceMemory, 10) {
		t.Error("retirement fired while disabled (second SBE)")
	}
	if c.RecordDBE(DeviceMemory, 10, true) {
		t.Error("retirement fired while disabled (DBE)")
	}
	if len(c.Retirement.Retired()) != 0 {
		t.Error("retired pages recorded while disabled")
	}
}

func TestRetirementTwoSBERule(t *testing.T) {
	c := NewCard(1)
	c.Retirement.Enabled = true
	if c.RecordSBE(DeviceMemory, 42) {
		t.Error("first SBE must not retire the page")
	}
	if c.Retirement.PendingSBEPages() != 1 {
		t.Error("page should be pending after first SBE")
	}
	if !c.RecordSBE(DeviceMemory, 42) {
		t.Error("second SBE on same page must retire it")
	}
	got := c.Retirement.Retired()
	if len(got) != 1 || got[0].Page != 42 || got[0].Cause != RetiredByTwoSBE {
		t.Errorf("retired = %+v", got)
	}
	// Further SBEs on the retired page do nothing.
	if c.RecordSBE(DeviceMemory, 42) {
		t.Error("SBE on retired page must not re-retire")
	}
	if c.Retirement.PendingSBEPages() != 0 {
		t.Error("pending set should be clear after retirement")
	}
}

func TestRetirementDBERule(t *testing.T) {
	c := NewCard(1)
	c.Retirement.Enabled = true
	if !c.RecordDBE(DeviceMemory, 7, true) {
		t.Error("DBE must retire its page")
	}
	if got := c.Retirement.Retired(); len(got) != 1 || got[0].Cause != RetiredByDBE {
		t.Errorf("retired = %+v", got)
	}
	if !c.Retirement.retiredSet[7] || c.Retirement.retiredSet[8] {
		t.Errorf("retired set = %v, want page 7 alone", c.Retirement.retiredSet)
	}
	if c.RecordDBE(DeviceMemory, 7, true) {
		t.Error("DBE on already-retired page must not fire again")
	}
}

func TestRetirementOnlyDeviceMemory(t *testing.T) {
	c := NewCard(1)
	c.Retirement.Enabled = true
	if c.RecordSBE(L2Cache, 1) || c.RecordSBE(L2Cache, 1) {
		t.Error("L2 SBEs must not trigger page retirement")
	}
	if c.RecordDBE(RegisterFile, 1, true) {
		t.Error("register-file DBE must not trigger page retirement")
	}
}

func TestRetirementSBEThenDBESamePage(t *testing.T) {
	c := NewCard(1)
	c.Retirement.Enabled = true
	c.RecordSBE(DeviceMemory, 5)
	if !c.RecordDBE(DeviceMemory, 5, true) {
		t.Error("DBE after one SBE must retire")
	}
	got := c.Retirement.Retired()
	if len(got) != 1 || got[0].Cause != RetiredByDBE {
		t.Errorf("cause = %+v, want DBE", got)
	}
}

func TestInfoROMLossOnCrash(t *testing.T) {
	c := NewCard(1)
	c.RecordDBE(DeviceMemory, 0, false) // node died before flush
	c.RecordDBE(DeviceMemory, 1, true)
	if c.TrueCounts.TotalDBE() != 2 {
		t.Errorf("true DBE = %d, want 2", c.TrueCounts.TotalDBE())
	}
	if c.InfoROM.TotalDBE() != 1 {
		t.Errorf("InfoROM DBE = %d, want 1 (one record lost)", c.InfoROM.TotalDBE())
	}
}

func TestErrorCountsArithmetic(t *testing.T) {
	var a, b ErrorCounts
	a.SingleBit[DeviceMemory] = 5
	a.DoubleBit[L2Cache] = 2
	b.SingleBit[DeviceMemory] = 3
	b.DoubleBit[L2Cache] = 4
	d := a.Sub(b)
	if d.SingleBit[DeviceMemory] != 2 {
		t.Errorf("sub sbe = %d, want 2", d.SingleBit[DeviceMemory])
	}
	if d.DoubleBit[L2Cache] != 0 {
		t.Errorf("sub must clamp at zero, got %d", d.DoubleBit[L2Cache])
	}
	var sum ErrorCounts
	sum.Add(a)
	sum.Add(b)
	if sum.TotalSBE() != 8 || sum.TotalDBE() != 6 {
		t.Errorf("totals = %d sbe, %d dbe", sum.TotalSBE(), sum.TotalDBE())
	}
}

func TestRetirementStateProperty(t *testing.T) {
	// Property: after any sequence of SBE/DBE page hits, every page is
	// retired at most once, and a page is retired iff it saw a DBE or
	// two or more SBEs while live.
	f := func(ops []uint16) bool {
		var r RetirementState
		r.Enabled = true
		sbe := map[int32]int{}
		dbe := map[int32]bool{}
		for _, op := range ops {
			page := int32(op % 64)
			isDBE := op&0x8000 != 0
			if isDBE {
				r.recordDBE(page)
				if !r.retiredSet[page] {
					return false
				}
				dbe[page] = true
			} else {
				r.recordSBE(page)
				if !r.retiredSet[page] {
					sbe[page]++
				}
			}
		}
		retired := r.Retired()
		seen := map[int32]bool{}
		for _, rp := range retired {
			if seen[rp.Page] {
				return false // retired twice
			}
			seen[rp.Page] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFleetPopulation(t *testing.T) {
	f := NewFleet(4)
	if f.ManufacturedCount() != topology.TotalComputeGPUs+4 {
		t.Errorf("manufactured = %d", f.ManufacturedCount())
	}
	if f.CardAt(0) == nil {
		t.Error("node 0 should hold a card")
	}
	if f.CardAt(topology.TotalNodes-1) != nil {
		t.Error("last service slot should be empty")
	}
	if f.CardAt(-1) != nil || f.CardAt(topology.TotalNodes) != nil {
		t.Error("out-of-range CardAt should be nil")
	}
	if len(f.Cards()) != topology.TotalComputeGPUs {
		t.Errorf("Cards() returned %d entries", len(f.Cards()))
	}
}

func TestFleetHotSpareSwap(t *testing.T) {
	f := NewFleet(1)
	f.SwapThreshold = 2
	n := topology.NodeID(100)
	orig := f.CardAt(n)
	now := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

	orig.RecordDBE(DeviceMemory, 0, true)
	if got := f.NoteDBE(n, now); got != nil {
		t.Error("swap fired below threshold")
	}
	orig.RecordDBE(DeviceMemory, 1, true)
	got := f.NoteDBE(n, now)
	if got != orig {
		t.Fatalf("swap returned %v, want original card", got)
	}
	if !orig.Retired || !orig.RetiredAt.Equal(now) {
		t.Error("pulled card not marked retired")
	}
	repl := f.CardAt(n)
	if repl == orig || repl == nil {
		t.Fatal("slot not repopulated with a different card")
	}
	if len(f.HotSpareCluster()) != 1 {
		t.Error("hot-spare cluster should hold the pulled card")
	}
	if f.CardBySerial(orig.Serial) != orig {
		t.Error("pulled card must remain findable by serial")
	}
}

func TestFleetSwapManufacturesWhenOutOfSpares(t *testing.T) {
	f := NewFleet(0)
	f.SwapThreshold = 1
	before := f.ManufacturedCount()
	c := f.CardAt(10)
	c.RecordDBE(DeviceMemory, 0, true)
	if f.NoteDBE(10, time.Time{}) == nil {
		t.Fatal("swap should fire at threshold 1")
	}
	if f.ManufacturedCount() != before+1 {
		t.Error("replacement should be freshly manufactured")
	}
}

func TestFleetSwapDisabled(t *testing.T) {
	f := NewFleet(0)
	f.SwapThreshold = 0
	c := f.CardAt(10)
	for i := 0; i < 5; i++ {
		c.RecordDBE(DeviceMemory, int32(i), true)
	}
	if f.NoteDBE(10, time.Time{}) != nil {
		t.Error("swap must not fire when policy disabled")
	}
}

func TestFleetEnableRetirement(t *testing.T) {
	f := NewFleet(2)
	f.EnableRetirement()
	if !f.CardAt(0).Retirement.Enabled {
		t.Error("installed card retirement not enabled")
	}
	// Replacement cards inherit the setting.
	f.SwapThreshold = 1
	f.CardAt(0).RecordDBE(DeviceMemory, 0, true)
	f.NoteDBE(0, time.Time{})
	if !f.CardAt(0).Retirement.Enabled {
		t.Error("replacement card must inherit retirement setting")
	}
}

func TestRetirementBudget(t *testing.T) {
	var r RetirementState
	r.Enabled = true
	if r.Exhausted() || r.Headroom() != MaxRetiredPages {
		t.Fatal("fresh state should have full headroom")
	}
	for p := int32(0); p < MaxRetiredPages; p++ {
		r.recordDBE(p)
	}
	if !r.Exhausted() || r.Headroom() != 0 {
		t.Errorf("exhausted = %v headroom = %d after %d retirements",
			r.Exhausted(), r.Headroom(), MaxRetiredPages)
	}
}
