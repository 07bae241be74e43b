package store

import (
	"fmt"
	"sort"
	"time"

	"titanre/internal/console"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Time-bucketed rollups — the paper's fleet-wide aggregates (events per
// hour by code, per-cabinet heatmaps). A Rollup is a rowSink: fold feeds
// its one addRow kernel column values straight off sealed segments and
// off the retained tail's events, never materializing console.Event
// values for sealed rows. RollupEvents feeds the same kernel from a
// plain event slice — the batch reference the equivalence tests compare
// the segment path against.

// RollupSpec describes one rollup: which dimensions to group by, the
// bucket width, and optional code/time filters. Zero times mean
// unbounded; bounds are inclusive, matching ScanNode.
type RollupSpec struct {
	ByCode    bool
	ByCabinet bool
	ByCage    bool
	ByNode    bool

	// Bucket is the time-bucket width; events land in the bucket
	// floor(t/Bucket)*Bucket. Must be a positive whole number of
	// seconds (the store's native resolution).
	Bucket time.Duration

	// FilterCode restricts the rollup to Code. Like Since/Until it is
	// folded into the fold's matcher (narrow), never tested per row.
	FilterCode bool
	Code       xid.Code

	Since, Until time.Time
}

func (spec RollupSpec) validate() error {
	if spec.Bucket < time.Second {
		return fmt.Errorf("store: rollup bucket %v must be at least 1s", spec.Bucket)
	}
	if spec.Bucket%time.Second != 0 {
		return fmt.Errorf("store: rollup bucket %v must be whole seconds", spec.Bucket)
	}
	return nil
}

// rollupKey is one cell's group-by coordinates; unused dimensions stay
// at their zero value so the key is comparable and compact.
type rollupKey struct {
	bucket int64 // epoch seconds, bucket start
	code   int16
	cab    int16
	cage   int8
	node   int32
}

// Rollup accumulates bucketed counts. ParallelRollupAcc (or
// MergeRollupPartials) populates it; Doc renders it.
type Rollup struct {
	spec  RollupSpec
	bs    int64 // bucket width, seconds
	cells map[rollupKey]int64
	total int64
}

// NewRollup validates spec and returns an empty accumulator.
func NewRollup(spec RollupSpec) (*Rollup, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return newRollup(spec), nil
}

// newRollup builds the accumulator for an already validated spec.
func newRollup(spec RollupSpec) *Rollup {
	return &Rollup{spec: spec, bs: int64(spec.Bucket / time.Second), cells: make(map[rollupKey]int64)}
}

// addRow is the kernel: count one matching row. The spec's own filter
// (code, time range) was already applied by the matcher that chose the
// row, so every call lands in a cell.
func (r *Rollup) addRow(sec int64, code int16, node, _ uint32) {
	bucket := sec / r.bs
	if sec < 0 && sec%r.bs != 0 {
		bucket-- // floor, not truncate, for pre-epoch times
	}
	var key rollupKey
	key.bucket = bucket * r.bs
	if r.spec.ByCode {
		key.code = code
	}
	if r.spec.ByCabinet {
		key.cab = int16(node / topology.NodesPerCabinet)
	}
	if r.spec.ByCage {
		key.cage = int8(node / topology.NodesPerCage % topology.CagesPerCabinet)
	}
	if r.spec.ByNode {
		key.node = int32(node)
	}
	r.cells[key]++
	r.total++
}

// needSerial: no rollup dimension reads the card serial.
func (r *Rollup) needSerial() bool { return false }

// Merge folds another accumulator built with the same spec into r.
// Cell addition is commutative and associative, so merging per-worker
// partials in any order renders the identical document — the property
// the segment-parallel executor's determinism rests on. o must not be
// used afterwards.
func (r *Rollup) Merge(o *Rollup) {
	for k, v := range o.cells {
		r.cells[k] += v
	}
	r.total += o.total
}

// RollupCell is one rendered cell. Only the grouped dimensions are
// present; Count is the number of events in the cell.
type RollupCell struct {
	Bucket  time.Time `json:"bucket"`
	Code    string    `json:"code,omitempty"`
	Cabinet *int      `json:"cabinet,omitempty"`
	Cage    *int      `json:"cage,omitempty"`
	Node    string    `json:"node,omitempty"`
	Count   int64     `json:"count"`
}

// RollupDoc is the rendered rollup: the spec echoed back plus the
// cells, sorted by (bucket, code, cabinet, cage, node) for a canonical
// byte representation.
type RollupDoc struct {
	By            []string     `json:"by"`
	BucketSeconds int64        `json:"bucket_seconds"`
	Code          string       `json:"code,omitempty"`
	TotalEvents   int64        `json:"total_events"`
	Cells         []RollupCell `json:"cells"`
}

// Doc renders the accumulated rollup deterministically: two rollups fed
// the same events in any order and any segment/tail split render
// byte-identical documents.
func (r *Rollup) Doc() RollupDoc {
	keys := make([]rollupKey, 0, len(r.cells))
	for k := range r.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		if a.code != b.code {
			return a.code < b.code
		}
		if a.cab != b.cab {
			return a.cab < b.cab
		}
		if a.cage != b.cage {
			return a.cage < b.cage
		}
		return a.node < b.node
	})
	doc := RollupDoc{
		By:            make([]string, 0, 4),
		BucketSeconds: r.bs,
		TotalEvents:   r.total,
		Cells:         make([]RollupCell, 0, len(keys)),
	}
	if r.spec.ByCode {
		doc.By = append(doc.By, "code")
	}
	if r.spec.ByCabinet {
		doc.By = append(doc.By, "cabinet")
	}
	if r.spec.ByCage {
		doc.By = append(doc.By, "cage")
	}
	if r.spec.ByNode {
		doc.By = append(doc.By, "node")
	}
	if r.spec.FilterCode {
		doc.Code = r.spec.Code.String()
	}
	for _, k := range keys {
		cell := RollupCell{
			Bucket: time.Unix(k.bucket, 0).UTC(),
			Count:  r.cells[k],
		}
		if r.spec.ByCode {
			cell.Code = xid.Code(k.code).String()
		}
		if r.spec.ByCabinet {
			cab := int(k.cab)
			cell.Cabinet = &cab
		}
		if r.spec.ByCage {
			cage := int(k.cage)
			cell.Cage = &cage
		}
		if r.spec.ByNode {
			cell.Node = topology.CNameOf(topology.NodeID(k.node))
		}
		doc.Cells = append(doc.Cells, cell)
	}
	return doc
}

// RollupEvents computes the identical rollup from materialized events
// alone — the batch-pipeline reference the equivalence tests (and the
// benchmark's oracle) compare the segment-streamed answer against. It
// stays a plain loop over the events on purpose: it shares the addRow
// kernel but none of the segment machinery it checks.
func RollupEvents(events []console.Event, spec RollupSpec) (RollupDoc, error) {
	r, err := NewRollup(spec)
	if err != nil {
		return RollupDoc{}, err
	}
	scanEvents(events, narrow(nil, spec.FilterCode, spec.Code, spec.Since, spec.Until), r)
	return r.Doc(), nil
}
