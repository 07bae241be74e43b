package console

import (
	"titanre/internal/gpu"
	"titanre/internal/xid"
)

// Raw line rendering.
//
// Console lines on Titan look like
//
//	[2014-02-03 11:52:07] c3-2c1s4n2 kernel: NVRM: Xid (0000:02:00.0): 48,
//	   An uncorrectable double bit error (DBE) has been detected on GPU ...
//
// The renderer embeds the metadata the SEC rules need to recover (serial,
// job, structure, page) as trailing key=value annotations, the way Titan's
// enhanced logging configuration did.

// structToken is the token each structure is written as on raw lines,
// indexed by gpu.Structure: the encoder reads it once per annotated event
// and the fast-path decoder walks it once per unit= line, so neither
// hashes.
var structToken = [gpu.NumStructures]string{
	gpu.DeviceMemory:  "framebuffer",
	gpu.L2Cache:       "l2-cache",
	gpu.RegisterFile:  "register-file",
	gpu.L1Shared:      "l1-shared",
	gpu.ReadOnlyData:  "read-only-cache",
	gpu.TextureMemory: "texture",
}

var tokenStruct = func() map[string]gpu.Structure {
	m := make(map[string]gpu.Structure, len(structToken))
	for s, tok := range structToken {
		m[tok] = gpu.Structure(s)
	}
	return m
}()

// tokenOf is s's unit= token: "" for a structure outside the model.
func tokenOf(s gpu.Structure) string {
	if uint(s) < uint(len(structToken)) {
		return structToken[s]
	}
	return ""
}

// Fixed fragments of the canonical line format. The renderer always
// writes the same bus id; real fleets vary it, which is one of the
// deviations that push a line onto the regex fallback path.
const (
	otbMessage = "GPU at 0000:02:00.0 has fallen off the bus."
	xidPrefix  = "Xid (0000:02:00.0): "
)

// Raw renders the event as the console line the driver would have
// written. It is AppendRaw materialized into a fresh string; hot paths
// (WriteLog, the fast-path decoder's re-encode check) use AppendRaw with
// a reused buffer instead.
func (e Event) Raw() string {
	return string(e.AppendRaw(make([]byte, 0, 128)))
}

func rawDescription(e Event) string {
	switch e.Code {
	case xid.DoubleBitError:
		return "An uncorrectable double bit error (DBE) has been detected on GPU."
	case xid.ECCPageRetirement, xid.ECCPageRetirementAlt:
		return "Dynamic page retirement recorded."
	case xid.GraphicsEngineException:
		return "Graphics Engine Exception."
	case xid.GPUMemoryPageFault:
		return "MMU Fault: GPU memory page fault."
	case xid.CorruptedPushBuffer:
		return "Invalid or corrupted push buffer stream."
	case xid.DriverFirmwareError:
		return "Driver firmware error."
	case xid.VideoProcessorException:
		return "Video processor exception."
	case xid.GPUStoppedProcessing:
		return "GPU has stopped processing."
	case xid.ContextSwitchFault:
		return "Graphics engine fault during context switch."
	case xid.PreemptiveCleanup:
		return "Preemptive cleanup, due to previous errors."
	case xid.DisplayEngineError:
		return "Display engine error."
	case xid.VideoMemoryInterfaceError:
		return "Error programming video memory interface."
	case xid.UnstableVideoMemory:
		return "Unstable video memory interface detected."
	case xid.MicrocontrollerHaltOld, xid.MicrocontrollerHaltNew:
		return "Internal micro-controller halt."
	case xid.VideoProcessorFault:
		return "Video processor exception (hardware)."
	default:
		return "Unknown GPU error."
	}
}
