package titanql

import (
	"titanre/internal/console"
	"titanre/internal/jsonw"
	"titanre/internal/store"
	"titanre/internal/xid"
)

// Compiling a plan lowers it onto the store kernels: the filter becomes
// one shared store.Matcher (inside sealed segments it evaluates to a
// position bitmap — stored per-code bitmaps unioned, then intersected
// word-wise with the node-mask and time-range bitmaps; over the
// retained tail it tests events one by one), and the stages already are
// the RollupSpec or TopSpec the accumulators understand. Fold then
// runs the store's one fold (sealed segments fanned across workers, then
// the tail) and returns the merged accumulator as a Result; Doc ranks
// and renders it, Partial exports it raw for a router to merge. Because
// partial accumulators merge commutatively and the final render sorts
// canonically, the document is byte-identical at any worker count — and
// byte-identical to ExecuteEvents, the naive materialized fold, which is
// the standing equivalence gate.

// Doc is one executed query as a struct. Exactly one of Rollup/Top is
// set, mirroring the plan kind; Query echoes the canonical spelling. It
// is what Execute, Run and MergePartials return; what is
// served is the Result, which renders the same bytes without building it.
type Doc struct {
	Query     string           `json:"query"`
	RankedTop int              `json:"ranked_top,omitempty"`
	Rollup    *store.RollupDoc `json:"rollup,omitempty"`
	Top       *store.TopDoc    `json:"top,omitempty"`
}

// Compiled is a plan lowered onto the store kernels, shareable
// read-only across queries and workers.
type Compiled struct {
	plan    *Plan
	query   string
	matcher *store.Matcher // nil when the filter is empty: every row
}

// Compile validates the plan — the filter's globs and cage range, then
// the shape the plan kind uses — and compiles the filter, the one place
// the plan's rows are chosen, to its matcher.
func (p *Plan) Compile() (*Compiled, error) {
	m, err := p.Filter.Compile()
	if err != nil {
		return nil, err
	}
	if p.Kind == KindTop {
		err = p.Top.Validate()
	} else {
		err = p.Rollup.Validate()
	}
	if err != nil {
		return nil, err
	}
	return &Compiled{plan: p, query: p.String(), matcher: m}, nil
}

// Result is a folded query: the canonical spelling, the rank bound, and
// the merged accumulator matching the plan kind (exactly one of roll/top
// is set). One replica's fold and the router's merge of many replicas'
// partials both end in a Result, so ranking and rendering happen in one
// place and only after every row is in. It is the jsonw.Appender every
// surface hands to jsonw.Write, in one of three faces: the titanql
// document; after Bare, the store document inside it; or, folded as a
// partial, the raw accumulator a router merges. A rollup's cells stream
// from the accumulator's packed keys into the buffer (store's
// Rollup.WriteJSON); Doc and Partial build the same answers as structs.
// The accumulator is borrowed from the store's pools: Release the Result
// once it is rendered (jsonw.Write does).
type Result struct {
	query   string
	rankK   int
	roll    *store.Rollup
	top     *store.Top
	partial bool   // renders as Partial
	bare    bool   // renders the store document alone,
	echo    string // with this "code" member
}

// Bare makes the result render the store document inside the titanql
// one — what /rollup, /top and titanreport -rollup answer — with those
// surfaces' one remark about their filter: code, the text of a ?code= /
// -rollup-code parameter the plan was spelled from ("" when there was
// none), echoed as the document's "code" member. titand calls it on its
// own fold, titanrouter on the merged one, so the echo never rides the
// accumulator or the wire. A partial has no bare face.
func (r *Result) Bare(code string) {
	r.bare, r.echo = true, ""
	if c, err := xid.ParseCode(code); code != "" && err == nil {
		r.echo = c.String()
	}
}

// AppendJSON renders the result's face as the indented JSON
// encoding/json writes for the Doc, the store document or the Partial.
func (r *Result) AppendJSON(dst []byte) []byte { return jsonw.Append(dst, r) }

// WriteJSON writes the face as one value.
func (r *Result) WriteJSON(w *jsonw.W) {
	if r.bare && !r.partial {
		r.writeInner(w)
		return
	}
	w.Obj()
	w.Key("query").Str(r.query)
	w.OmitInt("ranked_top", int64(r.rankK))
	if r.top != nil {
		w.Key("top")
	} else {
		w.Key("rollup")
	}
	r.writeInner(w)
	w.EndObj()
}

// writeInner writes the store document, or the store partial.
func (r *Result) writeInner(w *jsonw.W) {
	switch {
	case r.top == nil && r.partial:
		r.roll.WritePartialJSON(w)
	case r.top == nil:
		r.roll.WriteJSON(w, r.rankK, r.echo)
	case r.partial:
		r.top.Partial().WriteJSON(w)
	default:
		doc := r.top.Doc()
		doc.Code = r.echo
		doc.WriteJSON(w)
	}
}

// Fold runs the compiled plan over one consistent (sealed segments,
// retained tail) snapshot, segment-parallel at the given worker count
// (<= 0 means GOMAXPROCS), stopping short of the render. partial says
// the Result is a replica's share — it renders as, and exports, the
// Partial: an offender ranking then keeps every key instead of folding
// count-first (store.ParallelTopAcc).
func (c *Compiled) Fold(segs []*store.Segment, tail []console.Event, workers int, partial bool) (*Result, error) {
	res, err := c.fold(segs, tail, workers, partial)
	if err == nil {
		res.partial = partial
	}
	return res, err
}

// fold is Fold; everyKey is what ParallelTopAcc is told.
func (c *Compiled) fold(segs []*store.Segment, tail []console.Event, workers int, everyKey bool) (*Result, error) {
	res := &Result{query: c.query}
	var err error
	if c.plan.Kind == KindTop {
		res.top, err = store.ParallelTopAcc(segs, tail, c.plan.Top, c.matcher, workers, everyKey)
	} else {
		res.rankK = c.plan.RankK
		res.roll, err = store.ParallelRollupAcc(segs, tail, c.plan.Rollup, c.matcher, workers)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Release returns the result's accumulator to the store's pools.
func (r *Result) Release() {
	if r.top != nil {
		r.top.Release()
	} else {
		r.roll.Release()
	}
}

// Rows reports how many rows the fold took in (total_events of the
// rendered document).
func (r *Result) Rows() int64 {
	if r.top != nil {
		return r.top.Total()
	}
	return r.roll.Total()
}

// Visited reports how many rows the fold handed its kernels (store's
// Top.Visited): a count-first ranking reads fewer or more than Rows.
func (r *Result) Visited() int64 {
	if r.top != nil {
		return r.top.Visited()
	}
	return r.roll.Visited()
}

// Doc ranks the result and builds the document. It is equal at any
// worker count and equal to FoldEvents' over the same stream.
func (r *Result) Doc() Doc {
	doc := Doc{Query: r.query}
	if r.top != nil {
		top := r.top.Doc()
		doc.Top = &top
		return doc
	}
	roll := r.roll.RankedDoc(r.rankK)
	doc.RankedTop = r.rankK
	doc.Rollup = &roll
	return doc
}

// Execute is Fold then Doc: the rendered answer in one call.
func (c *Compiled) Execute(segs []*store.Segment, tail []console.Event, workers int) (Doc, error) {
	res, err := c.Fold(segs, tail, workers, false)
	if err != nil {
		return Doc{}, err
	}
	defer res.Release()
	return res.Doc(), nil
}

// FoldEvents is the naive reference: materialize the whole stream,
// filter it event by event through the same matcher, fold what is left
// as a plain event slice under no matcher, every key kept — no segment,
// bitmap, worker merge or count-first pass. Every compiled plan must
// byte-match it.
func (c *Compiled) FoldEvents(events []console.Event) (*Result, error) {
	kept := make([]console.Event, 0, len(events))
	for _, e := range events {
		if c.matcher.MatchEvent(e) {
			kept = append(kept, e)
		}
	}
	return (&Compiled{plan: c.plan, query: c.query}).fold(nil, kept, 1, true)
}

// Run parses, compiles and executes q in one call: the answer /query
// and titanreport -query render, as a struct.
func Run(q string, segs []*store.Segment, tail []console.Event, workers int) (Doc, error) {
	plan, err := Parse(q)
	if err != nil {
		return Doc{}, err
	}
	c, err := plan.Compile()
	if err != nil {
		return Doc{}, err
	}
	return c.Execute(segs, tail, workers)
}
