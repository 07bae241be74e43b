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

// Doc is one executed query. Exactly one of Rollup/Top is set,
// mirroring the plan kind; Query echoes the canonical spelling.
type Doc struct {
	Query     string           `json:"query"`
	RankedTop int              `json:"ranked_top,omitempty"`
	Rollup    *store.RollupDoc `json:"rollup,omitempty"`
	Top       *store.TopDoc    `json:"top,omitempty"`
}

// AppendJSON renders the document as the indented JSON encoding/json
// writes for it.
func (d Doc) AppendJSON(dst []byte) []byte { return jsonw.Append(dst, d) }

// WriteJSON writes the document as one value.
func (d Doc) WriteJSON(w *jsonw.W) { writeEnvelope(w, d.Query, d.RankedTop, d.Rollup, d.Top) }

// writeEnvelope renders what Doc and Partial share: the query echo, the
// rank bound and whichever of the two store documents is set.
func writeEnvelope[R, T interface{ WriteJSON(*jsonw.W) }](w *jsonw.W, query string, ranked int, rollup *R, top *T) {
	w.Obj()
	w.Key("query").Str(query)
	w.OmitInt("ranked_top", int64(ranked))
	if rollup != nil {
		(*rollup).WriteJSON(w.Key("rollup"))
	}
	if top != nil {
		(*top).WriteJSON(w.Key("top"))
	}
	w.EndObj()
}

// Bare unwraps the store document inside d — what /rollup, /top and
// titanreport -rollup answer — with those surfaces' one remark about
// their filter: code, the text of a ?code= / -rollup-code parameter the
// plan was spelled from ("" when there was none), echoed as the
// document's "code" member. titand calls it on its own fold, titanrouter
// on the merged one, so the echo never rides the accumulator or the wire.
func (d Doc) Bare(code string) jsonw.Appender {
	echo := ""
	if code != "" {
		if c, err := xid.ParseCode(code); err == nil {
			echo = c.String()
		}
	}
	if d.Top != nil {
		d.Top.Code = echo
		return d.Top
	}
	d.Rollup.Code = echo
	return d.Rollup
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

// Result is a folded query before rendering: the canonical spelling,
// the rank bound, and the merged accumulator matching the plan kind
// (exactly one of roll/top is set). One replica's fold and the router's
// merge of many replicas' partials both end in a Result, so ranking and
// rendering happen in one place — Doc — and only after every row is in.
// The accumulator is borrowed from the store's pools: Release the Result
// once its Doc or Partial is taken.
type Result struct {
	query string
	rankK int
	roll  *store.Rollup
	top   *store.Top
}

// Fold runs the compiled plan over one consistent (sealed segments,
// retained tail) snapshot, segment-parallel at the given worker count
// (<= 0 means GOMAXPROCS), stopping short of the render. partial says
// the Result will be exported with Partial rather than rendered with
// Doc: an offender ranking then keeps every key instead of folding
// count-first (store.ParallelTopAcc).
func (c *Compiled) Fold(segs []*store.Segment, tail []console.Event, workers int, partial bool) (*Result, error) {
	res := &Result{query: c.query}
	var err error
	if c.plan.Kind == KindTop {
		res.top, err = store.ParallelTopAcc(segs, tail, c.plan.Top, c.matcher, workers, partial)
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

// Doc ranks and renders the result. The document is byte-identical at
// any worker count and byte-identical to ExecuteEvents over the same
// stream.
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

// ExecuteEvents is the naive reference: materialize the whole stream,
// filter it event by event through the same matcher, fold what is left
// as a plain event slice under no matcher — no segment, bitmap, worker
// merge or count-first pass — and render. Every compiled plan must
// byte-match it.
func (c *Compiled) ExecuteEvents(events []console.Event) (Doc, error) {
	kept := make([]console.Event, 0, len(events))
	for _, e := range events {
		if c.matcher.MatchEvent(e) {
			kept = append(kept, e)
		}
	}
	res, err := (&Compiled{plan: c.plan, query: c.query}).Fold(nil, kept, 1, true)
	if err != nil {
		return Doc{}, err
	}
	defer res.Release()
	return res.Doc(), nil
}

// Run parses, compiles and executes q in one call — what the /query
// handler and titanreport -query both do.
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
