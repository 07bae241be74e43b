package xid

import (
	"strings"
	"testing"
)

func TestCatalogComplete(t *testing.T) {
	// Every code named in the paper's tables must be present.
	want := []Code{
		SingleBitError, OffTheBus,
		13, 31, 32, 38, 42, 43, 44, 45, 48, 56, 57, 58, 59, 62, 63, 64, 65,
	}
	for _, c := range want {
		if !Known(c) {
			t.Errorf("code %v missing from catalog", c)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("catalog has %d entries, want %d", len(All()), len(want))
	}
}

func TestHardwareTableMatchesPaperTable1(t *testing.T) {
	// Table 1: SBE, DBE(48), OTB, 56, 57, 58, 63, 64, 65.
	want := map[Code]bool{
		SingleBitError: true, DoubleBitError: true, OffTheBus: true,
		56: true, 57: true, 58: true, 63: true, 64: true, 65: true,
	}
	got := HardwareTable()
	if len(got) != len(want) {
		t.Fatalf("hardware table has %d entries, want %d: %v", len(got), len(want), got)
	}
	for _, info := range got {
		if !want[info.Code] {
			t.Errorf("unexpected hardware-table entry %v", info.Code)
		}
	}
}

func TestSoftwareTableMatchesPaperTable2(t *testing.T) {
	// Table 2: 13, 31, 32, 38, 42, 43, 44, 45, 57, 58, 59, 62.
	want := map[Code]bool{
		13: true, 31: true, 32: true, 38: true, 42: true, 43: true,
		44: true, 45: true, 57: true, 58: true, 59: true, 62: true,
	}
	got := SoftwareTable()
	if len(got) != len(want) {
		t.Fatalf("software table has %d entries, want %d", len(got), len(want))
	}
	for _, info := range got {
		if !want[info.Code] {
			t.Errorf("unexpected software-table entry %v", info.Code)
		}
	}
}

func TestSharedCodesAppearInBothTables(t *testing.T) {
	// XIDs 57 and 58 are listed in both paper tables.
	inHW := map[Code]bool{}
	for _, i := range HardwareTable() {
		inHW[i.Code] = true
	}
	inSW := map[Code]bool{}
	for _, i := range SoftwareTable() {
		inSW[i.Code] = true
	}
	for _, c := range []Code{57, 58} {
		if !inHW[c] || !inSW[c] {
			t.Errorf("code %v must appear in both tables", c)
		}
	}
}

// entry is Lookup for a code the study's catalog must hold.
func entry(t *testing.T, c Code) Info {
	t.Helper()
	info, ok := Lookup(c)
	if !ok {
		t.Fatalf("code %d not in catalog", int(c))
	}
	return info
}

func TestCrashSemantics(t *testing.T) {
	if entry(t, SingleBitError).CrashesApp {
		t.Error("SBE must not crash the application (corrected by SECDED)")
	}
	if !entry(t, DoubleBitError).CrashesApp {
		t.Error("DBE must always crash the application")
	}
	if !entry(t, OffTheBus).CrashesApp {
		t.Error("off-the-bus must crash the application")
	}
	if entry(t, ECCPageRetirement).CrashesApp {
		t.Error("page-retirement record itself is informational")
	}
}

func TestPropagationFlags(t *testing.T) {
	if !entry(t, GraphicsEngineException).PropagatesToJob {
		t.Error("XID 13 must propagate to all job nodes (Observation 7)")
	}
	if entry(t, DoubleBitError).PropagatesToJob {
		t.Error("DBE occurs on a single card, must not propagate")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup(999); ok {
		t.Error("Lookup(999) should fail")
	}
}

func TestStringForms(t *testing.T) {
	if SingleBitError.String() != "SBE" {
		t.Errorf("SBE string = %q", SingleBitError.String())
	}
	if OffTheBus.String() != "OTB" {
		t.Errorf("OTB string = %q", OffTheBus.String())
	}
	if DoubleBitError.String() != "XID 48" {
		t.Errorf("DBE string = %q", DoubleBitError.String())
	}
	s := entry(t, GraphicsEngineException).String()
	if !strings.Contains(s, "XID 13") || !strings.Contains(s, "graphics engine") {
		t.Errorf("info string = %q", s)
	}
	if Hardware.String() != "hardware" || Software.String() != "software" {
		t.Error("Class string forms wrong")
	}
	if !strings.Contains(Class(42).String(), "42") {
		t.Error("unknown class should render its number")
	}
}

func TestThermalAndDriverFlags(t *testing.T) {
	thermal := []Code{OffTheBus, 13, 32, 62}
	for _, c := range thermal {
		if !entry(t, c).Thermal {
			t.Errorf("%v should be flagged thermal-sensitive", c)
		}
	}
	driverOnly := []Code{38, 42, 43, 44, 45, 59}
	for _, c := range driverOnly {
		info := entry(t, c)
		if !info.DriverIssue || info.AppRelated {
			t.Errorf("%v should be driver-caused and not app-related", c)
		}
	}
}

func TestParseCode(t *testing.T) {
	for in, want := range map[string]Code{"13": 13, "-1": SingleBitError, "sbe": SingleBitError, "SBE": SingleBitError, "otb": OffTheBus, "Otb": OffTheBus, "65549": 65549} {
		got, err := ParseCode(in)
		if err != nil || got != want {
			t.Errorf("ParseCode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "zzz", "1.5", "xid13"} {
		if _, err := ParseCode(in); err == nil || !strings.Contains(err.Error(), "bad code") {
			t.Errorf("ParseCode(%q) error = %v, want a bad-code error", in, err)
		}
	}
}
