package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"time"

	"titanre/internal/analysis"
	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/nvsmi"
	"titanre/internal/report"
	"titanre/internal/scheduler"
	"titanre/internal/sim"
	"titanre/internal/stats"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

func topologyCName(n topology.NodeID) string { return topology.LocationOf(n).CName() }

// MonthDigest is one month of the operations digest: the numbers an
// on-call operator would review, per the practices the paper describes
// (watching DBE cards for the hot-spare policy, tracking the OTB
// integration issue, noticing new XIDs appear).
type MonthDigest struct {
	Year  int
	Month time.Month
	// Counts of the headline classes.
	DBE, OTB, Retirements, AppIncidents, DriverEvents int
	// NewCodes lists error codes seen this month for the first time
	// (Observation 5's "keep updating your parsing rules" trigger).
	NewCodes []xid.Code
	// RepeatDBECards is how many cards saw their 2nd+ DBE this month
	// (hot-spare candidates).
	RepeatDBECards int
}

// MonthlyDigest builds the month-by-month operations summary.
func (s *Study) MonthlyDigest() []MonthDigest {
	var out []MonthDigest
	index := map[int]int{}
	for t := time.Date(s.Config.Start.Year(), s.Config.Start.Month(), 1, 0, 0, 0, 0, time.UTC); t.Before(s.Config.End); t = t.AddDate(0, 1, 0) {
		index[t.Year()*16+int(t.Month())] = len(out)
		out = append(out, MonthDigest{Year: t.Year(), Month: t.Month()})
	}
	seenCodes := map[xid.Code]bool{}
	dbePerCard := map[gpu.Serial]int{}

	appIncidents := map[int]int{}
	for _, code := range []xid.Code{13, 31} {
		for _, e := range s.incidents(code) {
			appIncidents[e.Time.Year()*16+int(e.Time.Month())]++
		}
	}

	for _, e := range s.Result.Events {
		mi, ok := index[e.Time.Year()*16+int(e.Time.Month())]
		if !ok {
			continue
		}
		d := &out[mi]
		if !seenCodes[e.Code] {
			seenCodes[e.Code] = true
			d.NewCodes = append(d.NewCodes, e.Code)
		}
		switch e.Code {
		case xid.DoubleBitError:
			d.DBE++
			dbePerCard[e.Serial]++
			if dbePerCard[e.Serial] >= 2 {
				d.RepeatDBECards++
			}
		case xid.OffTheBus:
			d.OTB++
		case xid.ECCPageRetirement, xid.ECCPageRetirementAlt:
			d.Retirements++
		case 13, 31:
			// Counted as incidents above, not raw storms.
		default:
			d.DriverEvents++
		}
	}
	for key, n := range appIncidents {
		if mi, ok := index[key]; ok {
			out[mi].AppIncidents = n
		}
	}
	return out
}

// WriteMonthlyDigest renders the digest as an aligned table, with the
// running DBE MTBF and its 95% confidence interval in the footer.
func (s *Study) WriteMonthlyDigest(w io.Writer) {
	digest := s.MonthlyDigest()
	rows := make([][]string, 0, len(digest))
	for _, d := range digest {
		newCodes := ""
		for i, c := range d.NewCodes {
			if i > 0 {
				newCodes += " "
			}
			newCodes += c.String()
		}
		rows = append(rows, []string{
			fmt.Sprintf("%04d-%02d", d.Year, int(d.Month)),
			fmt.Sprintf("%d", d.DBE),
			fmt.Sprintf("%d", d.OTB),
			fmt.Sprintf("%d", d.Retirements),
			fmt.Sprintf("%d", d.AppIncidents),
			fmt.Sprintf("%d", d.DriverEvents),
			fmt.Sprintf("%d", d.RepeatDBECards),
			newCodes,
		})
	}
	report.Table(w, "Monthly operations digest",
		[]string{"month", "DBE", "OTB", "retire", "app-incidents", "driver", "repeat-DBE cards", "first-seen codes"},
		rows)
	watch := analysis.RankCardHealth(s.Result.Snapshot, s.Result.Events, 10)
	watchRows := make([][]string, 0, len(watch))
	for _, h := range watch {
		watchRows = append(watchRows, []string{
			h.Serial.String(),
			topologyCName(h.Node),
			fmt.Sprintf("%d", h.DBEs),
			fmt.Sprintf("%d", h.RetiredPages),
			fmt.Sprintf("%d", h.SBE),
			fmt.Sprintf("%.1f", h.Score),
		})
	}
	report.Table(w, "Hot-spare watch list (top 10 riskiest cards)",
		[]string{"card", "node", "DBEs", "retired pages", "SBEs", "score"}, watchRows)

	if mtbf, err := s.DBEMTBF(); err == nil {
		n := len(s.EventsOf(xid.DoubleBitError))
		lo, hi, cerr := stats.MTBFConfidence(n, s.Config.End.Sub(s.Config.Start), 0.95)
		if cerr == nil {
			fmt.Fprintf(w, "DBE MTBF %.0f h (95%% CI %.0f-%.0f h over %d events)\n",
				mtbf.Hours(), lo.Hours(), hi.Hours(), n)
		}
	}
}

// ---- Dataset hash digests ----
//
// The digests below hash a canonical binary serialization of each
// artifact with SHA-256. Two runs that produce the same digest produced
// the same artifact bit for bit, which is how the determinism tests
// compare datasets across GOMAXPROCS settings without holding both in
// memory.

type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (d *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *hasher) i64(v int64)      { d.u64(uint64(v)) }
func (d *hasher) f64(v float64)    { d.u64(uint64(int64(v * 1e9))) }
func (d *hasher) when(t time.Time) { d.i64(t.UnixNano()) }

func (d *hasher) sum() [32]byte {
	var out [32]byte
	d.h.Sum(out[:0])
	return out
}

// EventsDigest hashes a console log: every field of every event, in log
// order.
func EventsDigest(events []console.Event) [32]byte {
	d := newHasher()
	d.i64(int64(len(events)))
	for _, e := range events {
		d.when(e.Time)
		d.i64(int64(e.Node))
		d.i64(int64(e.Serial))
		d.i64(int64(e.Code))
		d.i64(int64(e.Structure))
		if e.StructureValid {
			d.u64(1)
		} else {
			d.u64(0)
		}
		d.i64(int64(e.Page))
		d.i64(int64(e.Job))
	}
	return d.sum()
}

// JobsDigest hashes a placement log: specs, window and node lists, in log
// order.
func JobsDigest(jobs []scheduler.Record) [32]byte {
	d := newHasher()
	d.i64(int64(len(jobs)))
	for i := range jobs {
		r := &jobs[i]
		d.i64(int64(r.ID))
		d.i64(int64(r.Spec.User))
		d.i64(int64(r.Spec.Class))
		d.when(r.Spec.Submit)
		d.i64(int64(r.Spec.Runtime))
		d.f64(r.Spec.MaxMemPerNodeGB)
		d.f64(r.Spec.AvgMemPerNodeGB)
		if r.Spec.Buggy {
			d.u64(1)
		} else {
			d.u64(0)
		}
		d.when(r.Start)
		d.when(r.End)
		d.i64(int64(r.Nodes.Len()))
		for ri := range r.Nodes.NumRuns() {
			for _, n := range r.Nodes.Run(ri) {
				d.i64(int64(n))
			}
		}
	}
	return d.sum()
}

// SnapshotDigest hashes a machine-wide nvidia-smi sweep: every device's
// InfoROM counters, in sweep order.
func SnapshotDigest(snap nvsmi.Snapshot) [32]byte {
	d := newHasher()
	d.when(snap.Time)
	d.i64(int64(len(snap.Devices)))
	for i := range snap.Devices {
		dev := &snap.Devices[i]
		d.i64(int64(dev.Node))
		d.i64(int64(dev.Serial))
		for _, c := range dev.Counts.SingleBit {
			d.i64(c)
		}
		for _, c := range dev.Counts.DoubleBit {
			d.i64(c)
		}
		d.i64(int64(dev.RetiredPages))
		d.f64(dev.TempF)
	}
	return d.sum()
}

// DatasetDigest combines the event, job and snapshot digests plus the
// ground-truth SBE count into one fingerprint of a simulation result.
func DatasetDigest(res *sim.Result) [32]byte {
	d := newHasher()
	ev := EventsDigest(res.Events)
	d.h.Write(ev[:])
	jb := JobsDigest(res.Jobs)
	d.h.Write(jb[:])
	sn := SnapshotDigest(res.Snapshot)
	d.h.Write(sn[:])
	d.i64(res.TrueSBECount)
	return d.sum()
}
