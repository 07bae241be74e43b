package alert

import (
	"cmp"
	"slices"
	"time"

	"titanre/internal/bincode"
	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Checkpoint encoding: everything Feed reads and writes besides the
// config, so an engine restored from these bytes raises exactly what the
// engine that wrote them would have on the same later events. Maps go
// out in ascending key order, so equal engines encode to equal bytes.

// AppendFingerprint appends every field of the config, so two configs
// that detect alike encode alike (nil BurstCodes, every code, apart from
// an empty list, none).
func (c Config) AppendFingerprint(dst []byte) []byte {
	dst = bincode.AppendInt(dst, int64(c.DBEThreshold))
	dst = bincode.AppendInt(dst, int64(c.BurstWindow))
	dst = bincode.AppendInt(dst, int64(c.BurstCount))
	dst = bincode.AppendBool(dst, c.BurstCodes != nil)
	dst = bincode.AppendUint(dst, uint64(len(c.BurstCodes)))
	for _, code := range c.BurstCodes {
		dst = bincode.AppendInt(dst, int64(code))
	}
	dst = bincode.AppendInt(dst, int64(c.SuspectJobs))
	return bincode.AppendBool(dst, c.NewCodes)
}

// AppendState appends the engine's detector state to dst.
func (e *Engine) AppendState(dst []byte) []byte {
	dst = bincode.AppendUint(dst, uint64(len(e.alerts)))
	for _, a := range e.alerts {
		dst = bincode.AppendUint(dst, uint64(a.Kind))
		dst = bincode.AppendTime(dst, a.Time)
		dst = bincode.AppendInt(dst, int64(a.Code))
		dst = bincode.AppendInt(dst, int64(a.Node))
		dst = appendSerial(dst, a.Serial)
		dst = bincode.AppendInt(dst, int64(a.Count))
		dst = bincode.AppendString(dst, a.Detail)
	}
	dst = bincode.AppendUint(dst, uint64(len(e.dbePerCard)))
	for _, s := range bincode.SortedKeys(e.dbePerCard) {
		dst = bincode.AppendInt(appendSerial(dst, s), int64(e.dbePerCard[s]))
	}
	dst = appendKeys(dst, e.dbeAlerted, appendSerial)
	dst = appendKeys(dst, e.seenCodes, appendCode)
	dst = bincode.AppendUint(dst, uint64(len(e.recent)))
	for _, c := range bincode.SortedKeys(e.recent) {
		dst = bincode.AppendUint(appendCode(dst, c), uint64(len(e.recent[c])))
		for _, t := range e.recent[c] {
			dst = bincode.AppendTime(dst, t)
		}
	}
	dst = bincode.AppendUint(dst, uint64(len(e.burstMuted)))
	for _, c := range bincode.SortedKeys(e.burstMuted) {
		dst = bincode.AppendTime(appendCode(dst, c), e.burstMuted[c])
	}
	dst = bincode.AppendUint(dst, uint64(len(e.suspectJobs)))
	for _, n := range bincode.SortedKeys(e.suspectJobs) {
		dst = bincode.AppendUint(appendNode(dst, n), uint64(len(e.suspectJobs[n])))
		for _, j := range e.suspectJobs[n] {
			dst = appendJob(dst, j)
		}
	}
	dst = appendKeys(dst, e.suspectFired, appendNode)
	incidents := make([]incidentKey, 0, len(e.incidentSeen))
	for k := range e.incidentSeen {
		incidents = append(incidents, k)
	}
	slices.SortFunc(incidents, compareIncidents)
	dst = bincode.AppendUint(dst, uint64(len(incidents)))
	for _, k := range incidents {
		dst = appendJob(appendCode(dst, k.code), k.job)
	}
	return appendJob(appendCode(dst, e.lastIncident.code), e.lastIncident.job)
}

// RestoreState replaces the engine's detector state with one AppendState
// wrote, reading it from r; the config stays the engine's own. Keys out
// of order fail the reader, so what it accepts re-encodes to the same
// bytes.
func (e *Engine) RestoreState(r *bincode.Reader) {
	*e = *NewEngine(e.cfg)
	e.alerts = make([]Alert, 0, r.Count(7))
	for i := cap(e.alerts); i > 0 && r.Err() == nil; i-- {
		kind := r.Uint()
		if kind > uint64(SuspectNode) {
			r.Fail("alert %d has kind %d", len(e.alerts), kind)
		}
		e.alerts = append(e.alerts, Alert{Kind: Kind(kind), Time: r.Time(), Code: readCode(r), Node: readNode(r),
			Serial: readSerial(r), Count: int(r.Int()), Detail: r.String()})
	}
	e.dbePerCard = bincode.ReadMap(r, readSerial, readInt)
	e.dbeAlerted = bincode.ReadMap(r, readSerial, member)
	e.seenCodes = bincode.ReadMap(r, readCode, member)
	e.recent = bincode.ReadMap(r, readCode, func(r *bincode.Reader) []time.Time {
		times := make([]time.Time, 0, r.Count(2))
		for i := cap(times); i > 0; i-- {
			times = append(times, r.Time())
		}
		return times
	})
	e.burstMuted = bincode.ReadMap(r, readCode, (*bincode.Reader).Time)
	var chunk []console.JobID // every node's jobs, each run capped at its length
	e.suspectJobs = bincode.ReadMap(r, readNode, func(r *bincode.Reader) []console.JobID {
		n := r.Count(1)
		if cap(chunk)-len(chunk) < n {
			chunk = make([]console.JobID, 0, max(n, 4096))
		}
		jobs := chunk[len(chunk) : len(chunk)+n : len(chunk)+n]
		chunk = chunk[:len(chunk)+n]
		for i := range jobs {
			if jobs[i] = readJob(r); i > 0 && jobs[i] <= jobs[i-1] {
				r.Fail("jobs out of order")
			}
		}
		return jobs
	})
	e.suspectFired = bincode.ReadMap(r, readNode, member)
	var prev incidentKey
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		k := incidentKey{readCode(r), readJob(r)}
		if i > 0 && compareIncidents(prev, k) >= 0 {
			r.Fail("incident keys out of order")
		}
		e.incidentSeen[k] = true
		prev = k
	}
	e.lastIncident = incidentKey{readCode(r), readJob(r)}
	if e.lastIncident != (incidentKey{}) && !e.incidentSeen[e.lastIncident] {
		r.Fail("last incident was never seen")
	}
}

func compareIncidents(a, b incidentKey) int {
	if c := cmp.Compare(a.code, b.code); c != 0 {
		return c
	}
	return cmp.Compare(a.job, b.job)
}

func appendCode(dst []byte, c xid.Code) []byte        { return bincode.AppendInt(dst, int64(c)) }
func appendNode(dst []byte, n topology.NodeID) []byte { return bincode.AppendInt(dst, int64(n)) }
func appendJob(dst []byte, j console.JobID) []byte    { return bincode.AppendInt(dst, int64(j)) }
func appendSerial(dst []byte, s gpu.Serial) []byte    { return bincode.AppendUint(dst, uint64(s)) }
func readCode(r *bincode.Reader) xid.Code             { return xid.Code(r.Int()) }
func readNode(r *bincode.Reader) topology.NodeID      { return topology.NodeID(r.Int()) }
func readJob(r *bincode.Reader) console.JobID         { return console.JobID(r.Int()) }
func readSerial(r *bincode.Reader) gpu.Serial         { return gpu.Serial(r.Uint32()) }
func readInt(r *bincode.Reader) int                   { return int(r.Int()) }
func member(*bincode.Reader) bool                     { return true }

// appendKeys appends a set's keys, counted, in ascending order.
func appendKeys[K cmp.Ordered, V any](dst []byte, m map[K]V, put func([]byte, K) []byte) []byte {
	dst = bincode.AppendUint(dst, uint64(len(m)))
	for _, k := range bincode.SortedKeys(m) {
		dst = put(dst, k)
	}
	return dst
}
