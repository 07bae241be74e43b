// Package titanql is the composable query language over the event
// store — the paper's analysis questions ("DBEs per cage on the c3
// column, 6-hour buckets, worst five cells") as one-line expressions:
//
//	code=48 cabinet=c3-* since=2014-01-01 | by cage | bucket 6h | top 5
//
// A query is a filter followed by pipeline stages. The filter is a
// conjunction of predicates (code=, code!=, node=, cabinet=, cage=,
// since=, until=; `*` means everything); the stages shape the answer:
//
//	by code,cabinet,cage,node   group cells by dimensions
//	bucket 6h                   time-bucket width (default 1h; Nd = days)
//	top 5                       keep the 5 highest-count cells (rollup)
//	top node|serial|code [K]    offender ranking instead of a rollup
//
// Parse builds a typed Plan whose String() is the canonical spelling
// (sorted code lists, fixed predicate and stage order, RFC3339 UTC
// times) — Parse∘String is the identity on canonical queries, the
// round-trip property the parser fuzzer holds. Compile lowers the plan
// onto the store kernels: the filter becomes a store.Matcher (per-code
// bitmaps intersected with node-mask and time-range bitmaps inside
// sealed segments), the stages a RollupSpec or TopSpec, and Execute
// runs them segment-parallel. FoldEvents is the deliberately naive
// reference — materialize, filter event-by-event, fold — that every
// compiled plan must byte-match.
package titanql

import (
	"sort"
	"strconv"
	"time"

	"titanre/internal/store"
	"titanre/internal/xid"
)

// Kind says what a plan produces: a grouped rollup or an offender
// ranking.
type Kind int

const (
	KindRollup Kind = iota
	KindTop
)

// Plan is one question put to the store — filter × group × bucket ×
// rank — however it was spelled: Parse reads a titanql expression, and
// /rollup, /top and titanreport -rollup fill one in from their
// parameters (NewPlan). Filter is the only place a plan says which rows
// count; Rollup and Top are the store's own shape-only specs, and Kind
// says which of the two applies.
type Plan struct {
	Filter store.Predicate
	Kind   Kind

	// Rollup shape, and an optional cell ranking (RankK > 0 keeps only
	// the RankK highest-count cells).
	Rollup store.RollupSpec
	RankK  int

	// Offender shape (Kind == KindTop).
	Top store.TopSpec
}

// NewPlan is the plan every spelling starts from: no filter (a
// Predicate's zero Cage would mean cage 0), a rollup with no dimensions.
func NewPlan() *Plan { return &Plan{Filter: store.Predicate{Cage: -1}} }

// String renders the canonical spelling: predicates in fixed order with
// sorted, deduplicated code lists and RFC3339 UTC times, then stages in
// by, bucket, top order with defaults spelled out. Parsing the result
// yields a plan that renders to the identical string. It is appended
// into one buffer — every answer carries it, so it is on the read path.
func (p *Plan) String() string {
	b := p.appendFilter(make([]byte, 0, 128))
	if p.Kind == KindTop {
		b = append(append(append(b, " | top "...), p.Top.By...), ' ')
		return string(strconv.AppendInt(b, int64(p.Top.K), 10))
	}
	sep := " | by "
	for _, dim := range p.Rollup.Dims() {
		b = append(append(b, sep...), dim...)
		sep = ","
	}
	b = appendDur(append(b, " | bucket "...), p.Rollup.Bucket)
	if p.RankK > 0 {
		b = strconv.AppendInt(append(b, " | top "...), int64(p.RankK), 10)
	}
	return string(b)
}

// appendFilter appends the predicates, or `*` when there are none.
func (p *Plan) appendFilter(b []byte) []byte {
	start := len(b)
	pred := func(key string) {
		if len(b) > start {
			b = append(b, ' ')
		}
		b = append(b, key...)
	}
	if len(p.Filter.Codes) > 0 {
		pred("code=")
		b = appendCodes(b, p.Filter.Codes)
	}
	if len(p.Filter.NotCodes) > 0 {
		pred("code!=")
		b = appendCodes(b, p.Filter.NotCodes)
	}
	if p.Filter.Node != "" {
		pred("node=")
		b = append(b, p.Filter.Node...)
	}
	if p.Filter.Cabinet != "" {
		pred("cabinet=")
		b = append(b, p.Filter.Cabinet...)
	}
	if p.Filter.Cage >= 0 {
		pred("cage=")
		b = strconv.AppendInt(b, int64(p.Filter.Cage), 10)
	}
	if !p.Filter.Since.IsZero() {
		pred("since=")
		b = p.Filter.Since.UTC().AppendFormat(b, time.RFC3339)
	}
	if !p.Filter.Until.IsZero() {
		pred("until=")
		b = p.Filter.Until.UTC().AppendFormat(b, time.RFC3339)
	}
	if len(b) == start {
		b = append(b, '*')
	}
	return b
}

// appendCodes appends a sorted, deduplicated code list, each code
// spelled the way queries write it: the conventional sbe/otb
// abbreviations for the paper's synthetic codes, the XID number
// otherwise. Plans built by Parse are already canonical; sorting here
// keeps hand-built plans honest too.
func appendCodes(b []byte, codes []xid.Code) []byte {
	for i, c := range canonCodes(codes) {
		if i > 0 {
			b = append(b, ',')
		}
		switch c {
		case xid.SingleBitError:
			b = append(b, "sbe"...)
		case xid.OffTheBus:
			b = append(b, "otb"...)
		default:
			b = strconv.AppendInt(b, int64(c), 10)
		}
	}
	return b
}

// canonCodes sorts and deduplicates without mutating its argument.
func canonCodes(codes []xid.Code) []xid.Code {
	canon := append([]xid.Code(nil), codes...)
	sort.Slice(canon, func(i, j int) bool { return canon[i] < canon[j] })
	out := canon[:0]
	for i, c := range canon {
		if i == 0 || c != canon[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// appendDur appends a bucket width canonically: whole days as Nd, then
// the largest whole unit of h/m/s.
func appendDur(b []byte, d time.Duration) []byte {
	unit, suffix := time.Second, byte('s')
	switch {
	case d >= 24*time.Hour && d%(24*time.Hour) == 0:
		unit, suffix = 24*time.Hour, 'd'
	case d >= time.Hour && d%time.Hour == 0:
		unit, suffix = time.Hour, 'h'
	case d >= time.Minute && d%time.Minute == 0:
		unit, suffix = time.Minute, 'm'
	}
	return append(strconv.AppendInt(b, int64(d/unit), 10), suffix)
}
