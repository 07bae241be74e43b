package titanql

// The lexer splits a query into words, `=` / `!=` operators and `|`
// stage separators. Words are maximal runs of anything else but
// whitespace — globs (`c3-*`, `c?-0c[12]*`, `c[!3]-*`), RFC3339
// timestamps, negative code numbers and comma lists all pass through as
// single words; the parser gives them meaning. A `!` is an operator only
// with its `=`: anywhere else it is part of a word (a glob's negated
// class), so every value the URL parameters take can be spelled here.

type tokKind int

const (
	tEOF tokKind = iota
	tWord
	tEq   // =
	tNeq  // !=
	tPipe // |
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "end of query"
	case tWord:
		return "word"
	case tEq:
		return "'='"
	case tNeq:
		return "'!='"
	case tPipe:
		return "'|'"
	}
	return "?"
}

type token struct {
	kind tokKind
	text string
	pos  int // byte offset, for error messages
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// lex tokenizes the whole query up front; every input lexes.
func lex(q string) []token {
	var toks []token
	neq := func(i int) bool { return q[i] == '!' && i+1 < len(q) && q[i+1] == '=' }
	i := 0
	for i < len(q) {
		c := q[i]
		switch {
		case isSpace(c):
			i++
		case c == '|':
			toks = append(toks, token{tPipe, "|", i})
			i++
		case c == '=':
			toks = append(toks, token{tEq, "=", i})
			i++
		case neq(i):
			toks = append(toks, token{tNeq, "!=", i})
			i += 2
		default:
			start := i
			for i++; i < len(q) && !isSpace(q[i]) && q[i] != '|' && q[i] != '=' && !neq(i); {
				i++
			}
			toks = append(toks, token{tWord, q[start:i], start})
		}
	}
	return append(toks, token{tEOF, "", len(q)})
}
