package titanql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"titanre/internal/store"
	"titanre/internal/xid"
)

// Parse builds a typed Plan from one query string:
//
//	filter ( '|' stage )*
//
// The filter is `*` (everything) or one or more key=value predicates;
// each stage is `by <dims>`, `bucket <dur>` or `top ...`. Parse
// canonicalizes as it goes (sorted code lists, truncated-to-second
// times), so String() on the result is the canonical spelling and
// re-parsing it yields an identical plan.
func Parse(q string) (*Plan, error) {
	// Split token stream into '|'-separated clauses.
	var clauses [][]token
	cur := []token{}
	for _, tok := range lex(q) {
		switch tok.kind {
		case tPipe, tEOF:
			clauses = append(clauses, cur)
			cur = []token{}
		default:
			cur = append(cur, tok)
		}
	}
	p := NewPlan()
	if err := p.parseFilter(clauses[0]); err != nil {
		return nil, err
	}
	var seenBy, seenBucket, seenTop bool
	for _, clause := range clauses[1:] {
		if len(clause) == 0 {
			return nil, fmt.Errorf("titanql: empty stage (nothing between '|'s)")
		}
		head := clause[0]
		if head.kind != tWord {
			return nil, fmt.Errorf("titanql: stage must start with by, bucket or top, got %s at offset %d", head.kind, head.pos)
		}
		var seen *bool
		var err error
		switch head.text {
		case "by":
			seen = &seenBy
			err = p.parseBy(clause[1:])
		case "bucket":
			seen = &seenBucket
			err = p.parseBucket(clause[1:])
		case "top":
			seen = &seenTop
			err = p.parseTop(clause[1:])
		default:
			return nil, fmt.Errorf("titanql: unknown stage %q at offset %d (want by, bucket or top)", head.text, head.pos)
		}
		if err != nil {
			return nil, err
		}
		if *seen {
			return nil, fmt.Errorf("titanql: duplicate %s stage", head.text)
		}
		*seen = true
	}
	if p.Kind == KindTop && (seenBy || seenBucket) {
		return nil, fmt.Errorf("titanql: top %s is an offender ranking; by/bucket stages don't apply", p.Top.By)
	}
	if p.Kind == KindRollup && p.Rollup.Bucket == 0 {
		p.Rollup.Bucket = time.Hour
	}
	return p, nil
}

// parseFilter consumes the leading clause: `*` or key=value predicates.
func (p *Plan) parseFilter(toks []token) error {
	if len(toks) == 0 {
		return fmt.Errorf("titanql: empty filter (use * to match everything)")
	}
	if toks[0].kind == tWord && toks[0].text == "*" {
		if len(toks) > 1 {
			return fmt.Errorf("titanql: '*' must be the whole filter")
		}
		return nil
	}
	for i := 0; i < len(toks); i += 3 {
		if toks[i].kind != tWord {
			return fmt.Errorf("titanql: expected predicate key, got %s at offset %d", toks[i].kind, toks[i].pos)
		}
		if i+1 >= len(toks) || (toks[i+1].kind != tEq && toks[i+1].kind != tNeq) {
			return fmt.Errorf("titanql: predicate %q needs '=' or '!=' at offset %d", toks[i].text, toks[i].pos)
		}
		if i+2 >= len(toks) || toks[i+2].kind != tWord {
			return fmt.Errorf("titanql: predicate %q has no value at offset %d", toks[i].text, toks[i].pos)
		}
		if err := SetPred(&p.Filter, toks[i].text, toks[i+2].text, toks[i+1].kind == tNeq); err != nil {
			return err
		}
	}
	return nil
}

// SetPred applies one filter predicate (key, value, and whether the
// operator was `!=`) to a predicate under construction. It is the one
// place query predicates are decoded — the titanql parser and the HTTP
// parameter form (?cabinet=, ?cage=, ?node= on /rollup and /top) both
// call it, so the surfaces accept identical spellings and reject
// identical garbage. Duplicate keys are errors; `!=` applies only to
// code.
func SetPred(p *store.Predicate, key, value string, negated bool) error {
	if value == "" {
		return fmt.Errorf("titanql: predicate %q has an empty value", key)
	}
	if negated && key != "code" {
		return fmt.Errorf("titanql: '!=' applies only to code, not %q", key)
	}
	switch key {
	case "code":
		codes, err := parseCodes(value)
		if err != nil {
			return err
		}
		if negated {
			if len(p.NotCodes) > 0 {
				return fmt.Errorf("titanql: duplicate code!= predicate")
			}
			p.NotCodes = codes
		} else {
			if len(p.Codes) > 0 {
				return fmt.Errorf("titanql: duplicate code= predicate")
			}
			p.Codes = codes
		}
	case "node":
		if p.Node != "" {
			return fmt.Errorf("titanql: duplicate node= predicate")
		}
		p.Node = value
	case "cabinet":
		if p.Cabinet != "" {
			return fmt.Errorf("titanql: duplicate cabinet= predicate")
		}
		p.Cabinet = value
	case "cage":
		if p.Cage >= 0 {
			return fmt.Errorf("titanql: duplicate cage= predicate")
		}
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return fmt.Errorf("titanql: bad cage %q (want 0, 1 or 2)", value)
		}
		p.Cage = n
	case "since":
		if !p.Since.IsZero() {
			return fmt.Errorf("titanql: duplicate since= predicate")
		}
		t, err := parseTime(value)
		if err != nil {
			return err
		}
		p.Since = t
	case "until":
		if !p.Until.IsZero() {
			return fmt.Errorf("titanql: duplicate until= predicate")
		}
		t, err := parseTime(value)
		if err != nil {
			return err
		}
		p.Until = t
	default:
		return fmt.Errorf("titanql: unknown predicate %q (want code, node, cabinet, cage, since or until)", key)
	}
	return nil
}

func (p *Plan) parseBy(toks []token) error {
	if len(toks) == 0 {
		return fmt.Errorf("titanql: by needs at least one dimension")
	}
	// Comma lists lex as single words; `by code, cage` splits across
	// words. Join everything back and split on commas.
	var words []string
	for _, tok := range toks {
		if tok.kind != tWord {
			return fmt.Errorf("titanql: unexpected %s in by stage at offset %d", tok.kind, tok.pos)
		}
		words = append(words, tok.text)
	}
	grouped := false
	for _, dim := range strings.Split(strings.Join(words, ","), ",") {
		// An empty element is `code, cage`: a trailing comma, then a
		// separate word.
		if dim == "" {
			continue
		}
		if !p.Rollup.GroupBy(dim) {
			return fmt.Errorf("titanql: unknown dimension %q (want code, cabinet, cage or node)", dim)
		}
		grouped = true
	}
	if !grouped {
		return fmt.Errorf("titanql: by needs at least one dimension")
	}
	return nil
}

func (p *Plan) parseBucket(toks []token) error {
	if len(toks) != 1 || toks[0].kind != tWord {
		return fmt.Errorf("titanql: bucket takes exactly one duration")
	}
	d, err := parseDur(toks[0].text)
	if err != nil {
		return err
	}
	p.Rollup.Bucket = d
	return nil
}

// parseTop handles both rankings: `top N` keeps the N highest-count
// rollup cells; `top node|serial|code [K]` switches the plan to an
// offender ranking with K cards (default 20, 0 = all).
func (p *Plan) parseTop(toks []token) error {
	if len(toks) == 0 || toks[0].kind != tWord {
		return fmt.Errorf("titanql: top needs a cell count or a dimension")
	}
	if n, err := strconv.Atoi(toks[0].text); err == nil {
		if n < 1 {
			return fmt.Errorf("titanql: top %d must keep at least one cell", n)
		}
		if len(toks) > 1 {
			return fmt.Errorf("titanql: top %d takes no further arguments", n)
		}
		p.RankK = n
		return nil
	}
	switch by := store.TopBy(toks[0].text); by {
	case store.TopByNode, store.TopBySerial, store.TopByCode:
		p.Kind = KindTop
		p.Top.By = by
	default:
		return fmt.Errorf("titanql: top dimension %q (want a count, node, serial or code)", toks[0].text)
	}
	p.Top.K = 20
	if len(toks) > 1 {
		if len(toks) > 2 || toks[1].kind != tWord {
			return fmt.Errorf("titanql: top %s takes at most one count", p.Top.By)
		}
		k, err := strconv.Atoi(toks[1].text)
		if err != nil || k < 0 {
			return fmt.Errorf("titanql: bad top count %q", toks[1].text)
		}
		p.Top.K = k
	}
	return nil
}

// parseCodes decodes a comma list of codes, sorted and deduplicated.
func parseCodes(value string) ([]xid.Code, error) {
	var codes []xid.Code
	for _, part := range strings.Split(value, ",") {
		if part == "" {
			continue
		}
		c, err := xid.ParseCode(part)
		if err != nil {
			return nil, fmt.Errorf("titanql: %v", err)
		}
		codes = append(codes, c)
	}
	if len(codes) == 0 {
		return nil, fmt.Errorf("titanql: empty code list %q", value)
	}
	return canonCodes(codes), nil
}

// parseTime accepts RFC3339 or a bare date (midnight UTC), truncated to
// the store's second resolution so parsed plans round-trip exactly.
func parseTime(s string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		t, err = time.Parse("2006-01-02", s)
	}
	if err != nil {
		return time.Time{}, fmt.Errorf("titanql: bad time %q: want RFC3339 or YYYY-MM-DD", s)
	}
	return time.Unix(t.Unix(), 0).UTC(), nil
}

// parseDur accepts Go durations plus an Nd day suffix, and requires the
// whole positive seconds the rollup kernel needs.
func parseDur(s string) (time.Duration, error) {
	var d time.Duration
	if days, err := strconv.Atoi(strings.TrimSuffix(s, "d")); err == nil && strings.HasSuffix(s, "d") {
		d = time.Duration(days) * 24 * time.Hour
	} else if d, err = time.ParseDuration(s); err != nil {
		return 0, fmt.Errorf("titanql: bad bucket %q: want a duration like 6h or 1d", s)
	}
	if d < time.Second || d%time.Second != 0 {
		return 0, fmt.Errorf("titanql: bucket %q must be a positive whole number of seconds", s)
	}
	return d, nil
}
