// Package xid catalogs the NVIDIA XID error codes studied in the Titan
// reliability paper (Tables 1 and 2), together with their classification
// (hardware vs. software/firmware), possible causes, and crash semantics.
//
// An XID is the error identifier the NVIDIA driver writes to the system
// console when a GPU condition is detected. Titan's console logs are parsed
// by simple event correlators (SEC) on the system management workstation;
// the reliability study keys almost every analysis off these codes. Two
// events in the study carry no XID: single bit errors (corrected silently
// by SECDED ECC and visible only through nvidia-smi counters) and
// "off the bus" events (the host loses the GPU entirely). Both are given
// synthetic negative codes here so the whole event space shares one type.
package xid

import (
	"fmt"
	"strconv"
	"strings"
)

// Code identifies a GPU error class. Non-negative values are real NVIDIA
// XID codes; negative values are synthetic codes for events the console
// records without an XID.
type Code int

// Synthetic codes for error classes without an NVIDIA XID.
const (
	// SingleBitError is corrected by SECDED ECC; it never appears in
	// console logs and is observable only via nvidia-smi counters.
	SingleBitError Code = -1
	// OffTheBus means the host lost the PCIe connection to the GPU. On
	// Titan this was traced to a system-integration (soldering) issue,
	// not the GPU micro-architecture, and was clustered before Dec 2013.
	OffTheBus Code = -2
)

// Real NVIDIA XID codes that appear in the study.
const (
	GraphicsEngineException   Code = 13
	GPUMemoryPageFault        Code = 31
	CorruptedPushBuffer       Code = 32
	DriverFirmwareError       Code = 38
	VideoProcessorException   Code = 42
	GPUStoppedProcessing      Code = 43
	ContextSwitchFault        Code = 44
	PreemptiveCleanup         Code = 45
	DoubleBitError            Code = 48
	DisplayEngineError        Code = 56
	VideoMemoryInterfaceError Code = 57
	UnstableVideoMemory       Code = 58
	MicrocontrollerHaltOld    Code = 59
	MicrocontrollerHaltNew    Code = 62
	ECCPageRetirement         Code = 63
	ECCPageRetirementAlt      Code = 64
	VideoProcessorFault       Code = 65
)

// Class partitions error codes the way the paper's Tables 1 and 2 do.
type Class int

const (
	// Hardware covers GPU system failures caused by hardware or cosmic
	// rays (Table 1).
	Hardware Class = iota
	// Software covers errors primarily caused by application bugs,
	// driver issues, or thermal problems (Table 2).
	Software
	// Both marks codes the paper lists in both tables because the
	// precise source cannot always be determined.
	Both
)

func (c Class) String() string {
	switch c {
	case Hardware:
		return "hardware"
	case Software:
		return "software"
	case Both:
		return "hardware+software"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Info describes one catalog entry.
type Info struct {
	Code        Code
	Name        string // short descriptive name used in reports
	Class       Class
	Causes      []string // possible causes per NVIDIA XID documentation
	CrashesApp  bool     // whether the event terminates the running application
	AppRelated  bool     // user application is listed among possible causes
	DriverIssue bool     // driver is listed among possible causes
	Thermal     bool     // thermal stress is listed among possible causes
	// PropagatesToJob: the error is reported on every node allocated to
	// the job rather than only where the problem occurred (Observation 7
	// behaviour of application-related errors).
	PropagatesToJob bool
}

// String renders "XID 13 (graphics engine exception)" or the synthetic
// names for SBE and off-the-bus events.
func (i Info) String() string {
	switch i.Code {
	case SingleBitError:
		return "SBE (single bit error)"
	case OffTheBus:
		return "OTB (off the bus)"
	default:
		return fmt.Sprintf("XID %d (%s)", int(i.Code), i.Name)
	}
}

// catalog holds every error class studied in the paper, in code order.
var catalog = []Info{
	{
		Code:       SingleBitError,
		Name:       "single bit error, corrected by SECDED ECC",
		Class:      Hardware,
		Causes:     []string{"cosmic ray strike", "cell wear", "voltage fluctuation"},
		CrashesApp: false,
	},
	{
		Code:       OffTheBus,
		Name:       "GPU off the bus",
		Class:      Hardware,
		Causes:     []string{"system integration (connector soldering)", "thermal stress"},
		CrashesApp: true,
		Thermal:    true,
	},
	{
		Code:            GraphicsEngineException,
		Name:            "graphics engine exception",
		Class:           Software,
		Causes:          []string{"driver", "user application", "system memory or FB corruption", "bus error", "thermal issue"},
		CrashesApp:      true,
		AppRelated:      true,
		DriverIssue:     true,
		Thermal:         true,
		PropagatesToJob: true,
	},
	{
		Code:            GPUMemoryPageFault,
		Name:            "GPU memory page fault",
		Class:           Software,
		Causes:          []string{"driver", "user application"},
		CrashesApp:      true,
		AppRelated:      true,
		DriverIssue:     true,
		PropagatesToJob: true,
	},
	{
		Code:        CorruptedPushBuffer,
		Name:        "invalid or corrupted push buffer stream",
		Class:       Software,
		Causes:      []string{"driver", "user application", "memory or FB corruption", "bus error", "thermal issue"},
		CrashesApp:  true,
		AppRelated:  true,
		DriverIssue: true,
		Thermal:     true,
	},
	{
		Code:        DriverFirmwareError,
		Name:        "driver firmware error",
		Class:       Software,
		Causes:      []string{"driver"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:        VideoProcessorException,
		Name:        "video processor exception",
		Class:       Software,
		Causes:      []string{"driver"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:        GPUStoppedProcessing,
		Name:        "GPU stopped processing",
		Class:       Software,
		Causes:      []string{"driver"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:        ContextSwitchFault,
		Name:        "graphics engine fault during context switch",
		Class:       Software,
		Causes:      []string{"driver"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:        PreemptiveCleanup,
		Name:        "preemptive cleanup, due to previous errors",
		Class:       Software,
		Causes:      []string{"driver (follow-on of a previous error)"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:       DoubleBitError,
		Name:       "double bit error, detected but not corrected by SECDED ECC",
		Class:      Hardware,
		Causes:     []string{"cosmic ray strike", "voltage fluctuation", "cell wear"},
		CrashesApp: true, // SECDED cannot correct, so execution is always terminated
	},
	{
		Code:       DisplayEngineError,
		Name:       "display engine error",
		Class:      Hardware,
		Causes:     []string{"hardware"},
		CrashesApp: true,
	},
	{
		Code:        VideoMemoryInterfaceError,
		Name:        "error programming video memory interface",
		Class:       Both,
		Causes:      []string{"hardware", "driver"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:        UnstableVideoMemory,
		Name:        "unstable video memory interface detected",
		Class:       Both,
		Causes:      []string{"hardware", "driver"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:        MicrocontrollerHaltOld,
		Name:        "internal micro-controller halt (older drivers)",
		Class:       Software,
		Causes:      []string{"driver"},
		CrashesApp:  true,
		DriverIssue: true,
	},
	{
		Code:        MicrocontrollerHaltNew,
		Name:        "internal micro-controller halt (newer drivers)",
		Class:       Software,
		Causes:      []string{"driver", "thermal issue"},
		CrashesApp:  true,
		DriverIssue: true,
		Thermal:     true,
	},
	{
		Code:  ECCPageRetirement,
		Name:  "ECC page retirement",
		Class: Hardware,
		Causes: []string{
			"one double bit error on a page",
			"two single bit errors on the same page",
		},
		// The application crashes when retirement is triggered by a DBE
		// but not when triggered by two SBEs; CrashesApp reflects the
		// retirement record itself, which is informational.
		CrashesApp: false,
	},
	{
		Code:       ECCPageRetirementAlt,
		Name:       "ECC page retirement (companion record)",
		Class:      Hardware,
		Causes:     []string{"same conditions as XID 63"},
		CrashesApp: false,
	},
	{
		Code:       VideoProcessorFault,
		Name:       "video processor exception (hardware)",
		Class:      Hardware,
		Causes:     []string{"hardware"},
		CrashesApp: true,
	},
}

var byCode map[Code]Info

func init() {
	byCode = make(map[Code]Info, len(catalog))
	for _, info := range catalog {
		if _, dup := byCode[info.Code]; dup {
			panic(fmt.Sprintf("xid: duplicate catalog entry for code %d", info.Code))
		}
		byCode[info.Code] = info
	}
}

// Lookup returns the catalog entry for a code.
func Lookup(c Code) (Info, bool) {
	info, ok := byCode[c]
	return info, ok
}

// Known reports whether a code is part of the study's catalog.
func Known(c Code) bool {
	_, ok := byCode[c]
	return ok
}

// All returns the full catalog in code order (synthetic codes first).
func All() []Info {
	out := make([]Info, len(catalog))
	copy(out, catalog)
	return out
}

// HardwareTable returns Table 1 of the paper: GPU hardware related errors.
// Codes classified as Both appear in this table and in SoftwareTable.
func HardwareTable() []Info {
	var out []Info
	for _, info := range catalog {
		if info.Class == Hardware || info.Class == Both {
			out = append(out, info)
		}
	}
	return out
}

// SoftwareTable returns Table 2 of the paper: GPU software/firmware
// related errors.
func SoftwareTable() []Info {
	var out []Info
	for _, info := range catalog {
		if info.Class == Software || info.Class == Both {
			out = append(out, info)
		}
	}
	return out
}

// String renders the code. Real XIDs print as "XID n"; synthetic codes
// print their conventional abbreviations.
func (c Code) String() string {
	var buf [24]byte
	return string(c.Append(buf[:0]))
}

// Append appends the code's String to dst.
func (c Code) Append(dst []byte) []byte {
	switch c {
	case SingleBitError:
		return append(dst, "SBE"...)
	case OffTheBus:
		return append(dst, "OTB"...)
	default:
		return strconv.AppendInt(append(dst, "XID "...), int64(c), 10)
	}
}

// ParseCode decodes a code the way operators write it: an XID number
// ("13", "-1") or the conventional abbreviations "sbe" / "otb"
// (case-insensitive). It is the one decoder behind titand's ?code= and
// /codes/{xid} parameters, titanql's code= predicate and titanreport's
// -rollup-code flag; callers add their own error prefix.
func ParseCode(s string) (Code, error) {
	switch strings.ToLower(s) {
	case "sbe":
		return SingleBitError, nil
	case "otb":
		return OffTheBus, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad code %q: want an XID number, sbe or otb", s)
	}
	return Code(n), nil
}
