package titanql

import (
	"fmt"

	"titanre/internal/console"
	"titanre/internal/store"
)

// Cluster-side query execution. A router fanning one query out to N
// replicas cannot merge rendered Docs — rank truncation and string
// rendering are only valid after the global fold. A Result folded as a
// partial is the replica's half: the accumulator rendered raw, unranked
// (Result.Partial is the same thing as a struct). Merge is the router's:
// fold the partials back into one Result with the store Merge kernels —
// which then ranks and renders as a single daemon's does.
// For rows partitioned across replicas in any way, the merged Doc is
// byte-identical to Execute over the union — the cluster face of the
// standing equivalence gate.

// Partial is one replica's share of a query: the canonical query
// echo, the rank bound (applied only after merging), and the raw
// accumulator matching the plan kind.
type Partial struct {
	Query     string               `json:"query"`
	RankedTop int                  `json:"ranked_top,omitempty"`
	Rollup    *store.RollupPartial `json:"rollup,omitempty"`
	Top       *store.TopPartial    `json:"top,omitempty"`
}

// Partial exports the result's unrendered, unranked accumulator.
func (r *Result) Partial() Partial {
	p := Partial{Query: r.query}
	if r.top != nil {
		tp := r.top.Partial()
		p.Top = &tp
		return p
	}
	rp := r.roll.Partial()
	p.RankedTop = r.rankK
	p.Rollup = &rp
	return p
}

// ExecutePartial is Fold then Partial: one replica's share of a query.
func (c *Compiled) ExecutePartial(segs []*store.Segment, tail []console.Event, workers int) (Partial, error) {
	res, err := c.Fold(segs, tail, workers, true)
	if err != nil {
		return Partial{}, err
	}
	defer res.Release()
	return res.Partial(), nil
}

// Merge folds per-replica partials of one query into one Result. All
// partials must agree on the query and plan kind (they were produced by
// the same compiled plan on every replica); ranking is applied when the
// Result renders, after the merge, which is the only point it is sound.
func Merge(parts []Partial) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("titanql: merge: no partials")
	}
	first := parts[0]
	tops := make([]store.TopPartial, 0, len(parts))
	rolls := make([]store.RollupPartial, 0, len(parts))
	for i, p := range parts {
		if p.Query != first.Query || p.RankedTop != first.RankedTop {
			return nil, fmt.Errorf("titanql: merge: partial %d answers %q (rank bound %d), not %q (%d)", i, p.Query, p.RankedTop, first.Query, first.RankedTop)
		}
		switch {
		case p.Top != nil && first.Top != nil:
			tops = append(tops, *p.Top)
		case p.Rollup != nil && first.Rollup != nil:
			rolls = append(rolls, *p.Rollup)
		default:
			return nil, fmt.Errorf("titanql: merge: partial %d carries no accumulator of the plan's kind", i)
		}
	}
	res := &Result{query: first.Query, rankK: first.RankedTop}
	var err error
	if first.Top != nil {
		res.top, err = store.MergeTopPartials(tops)
	} else {
		res.roll, err = store.MergeRollupPartials(rolls)
	}
	if err != nil {
		return nil, fmt.Errorf("titanql: merge: %w", err)
	}
	return res, nil
}

// MergePartials is Merge then Doc: the merged document as a struct.
func MergePartials(parts []Partial) (Doc, error) {
	res, err := Merge(parts)
	if err != nil {
		return Doc{}, err
	}
	defer res.Release()
	return res.Doc(), nil
}
