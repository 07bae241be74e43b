package scheduler

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"titanre/internal/console"
	"titanre/internal/topology"
	"titanre/internal/tsv"
	"titanre/internal/workload"
)

// Job-log serialization.
//
// The batch system's job log is one of the three artifacts the study
// joins (console log, job log, nvidia-smi samples). The format is a
// tab-separated line per job; the node list is compressed into dense-ID
// ranges ("12-19,40,96-103"), which keeps multi-thousand-node capability
// jobs readable.

const jobLogHeader = "#id\tuser\tclass\tsubmit\tstart\tend\tmaxmem_gb\tavgmem_gb\tbuggy\tnodes"

// WriteJobLog writes records as a TSV job log.
func WriteJobLog(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, jobLogHeader); err != nil {
		return err
	}
	for _, r := range records {
		_, err := fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%s\t%s\t%.3f\t%.3f\t%t\t%s\n",
			r.ID, r.Spec.User, r.Spec.Class,
			r.Spec.Submit.UTC().Format(time.RFC3339),
			r.Start.UTC().Format(time.RFC3339),
			r.End.UTC().Format(time.RFC3339),
			r.Spec.MaxMemPerNodeGB, r.Spec.AvgMemPerNodeGB,
			r.Spec.Buggy, CompressNodes(r.Nodes))
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// JobLogFields is the column count of one job-log row.
const JobLogFields = 10

// ParseJobLine decodes one data row of the TSV job log. Comment and
// blank lines are the caller's concern.
func ParseJobLine(line string) (Record, error) {
	var fields [JobLogFields]string
	if n := tsv.SplitFields(line, fields[:]); n != JobLogFields {
		return Record{}, fmt.Errorf("%d fields, want %d", n, JobLogFields)
	}
	return parseJobLine(fields[:])
}

// ReadJobLog parses a TSV job log produced by WriteJobLog. The whole
// input is read up front (pre-sized from Stat when r is a file) and
// parsed as substrings of one backing string: no per-line or per-field
// string allocations, records pre-sized from the line count, and each
// node list one span per range.
func ReadJobLog(r io.Reader) ([]Record, error) {
	data, err := tsv.ReadAllString(r)
	if err != nil {
		return nil, fmt.Errorf("scheduler: reading job log: %w", err)
	}
	out := make([]Record, 0, strings.Count(data, "\n")+1)
	var fields [JobLogFields]string
	lines := tsv.NewLines(data)
	for {
		line, lineNo, ok := lines.Next()
		if !ok {
			break
		}
		if line == "" || line[0] == '#' {
			continue
		}
		n := tsv.SplitFields(line, fields[:])
		if n != JobLogFields {
			return nil, fmt.Errorf("scheduler: job log line %d: %d fields, want %d", lineNo, n, JobLogFields)
		}
		rec, err := parseJobLine(fields[:])
		if err != nil {
			return nil, fmt.Errorf("scheduler: job log line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseJobLine(fields []string) (Record, error) {
	var rec Record
	id, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad id: %w", err)
	}
	rec.ID = console.JobID(id)
	user, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return rec, fmt.Errorf("bad user: %w", err)
	}
	rec.Spec.User = workload.UserID(user)
	rec.Spec.Class, err = parseClass(fields[2])
	if err != nil {
		return rec, err
	}
	if rec.Spec.Submit, err = time.Parse(time.RFC3339, fields[3]); err != nil {
		return rec, fmt.Errorf("bad submit: %w", err)
	}
	if rec.Start, err = time.Parse(time.RFC3339, fields[4]); err != nil {
		return rec, fmt.Errorf("bad start: %w", err)
	}
	if rec.End, err = time.Parse(time.RFC3339, fields[5]); err != nil {
		return rec, fmt.Errorf("bad end: %w", err)
	}
	if rec.Spec.MaxMemPerNodeGB, err = strconv.ParseFloat(fields[6], 64); err != nil {
		return rec, fmt.Errorf("bad maxmem: %w", err)
	}
	if rec.Spec.AvgMemPerNodeGB, err = strconv.ParseFloat(fields[7], 64); err != nil {
		return rec, fmt.Errorf("bad avgmem: %w", err)
	}
	if rec.Spec.Buggy, err = strconv.ParseBool(fields[8]); err != nil {
		return rec, fmt.Errorf("bad buggy flag: %w", err)
	}
	if rec.Nodes, err = ParseNodes(fields[9]); err != nil {
		return rec, err
	}
	rec.Spec.Nodes = rec.Nodes.Len()
	rec.Spec.Runtime = rec.End.Sub(rec.Start)
	return rec, nil
}

func parseClass(s string) (workload.Class, error) {
	for c := workload.Capability; c <= workload.Debugger; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown job class %q", s)
}

// CompressNodes renders a placement as sorted dense-ID ranges.
func CompressNodes(p Placement) string {
	if len(p.spans) == 0 {
		return "-"
	}
	ids := p.AppendTo(make([]topology.NodeID, 0, p.Len()))
	slices.Sort(ids)
	var b strings.Builder
	for i := 0; i < len(ids); {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", ids[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", ids[i], ids[j])
		}
		i = j + 1
	}
	return b.String()
}

// ParseNodes parses the range format produced by CompressNodes into a
// placement over the identity order, one span per range, in the order
// the ranges are written. Every range is checked against the machine's
// node IDs before it is taken.
func ParseNodes(s string) (Placement, error) {
	if s == "-" || s == "" {
		return Placement{}, nil
	}
	p := Placement{order: identityOrder, spans: make([]span, 0, strings.Count(s, ",")+1)}
	for len(s) > 0 {
		part := s
		if c := strings.IndexByte(s, ','); c >= 0 {
			part, s = s[:c], s[c+1:]
		} else {
			s = ""
		}
		lo, hi, err := parseRange(part)
		if err != nil {
			return Placement{}, err
		}
		p.spans = append(p.spans, span{int32(lo), int32(hi - lo + 1)})
	}
	return p, nil
}

// parseRange parses one "lo-hi" or "id" element of a node list.
func parseRange(part string) (lo, hi int, err error) {
	if dash := strings.IndexByte(part, '-'); dash >= 0 {
		if lo, err = strconv.Atoi(part[:dash]); err != nil {
			return 0, 0, fmt.Errorf("bad node range %q: %w", part, err)
		}
		if hi, err = strconv.Atoi(part[dash+1:]); err != nil {
			return 0, 0, fmt.Errorf("bad node range %q: %w", part, err)
		}
		if hi < lo {
			return 0, 0, fmt.Errorf("inverted node range %q", part)
		}
	} else if lo, err = strconv.Atoi(part); err != nil {
		return 0, 0, fmt.Errorf("bad node id %q: %w", part, err)
	} else {
		hi = lo
	}
	// IDs are never negative here, so the first invalid ID of the range
	// is lo or the first past the machine.
	if !topology.NodeID(hi).Valid() {
		return 0, 0, fmt.Errorf("node id %d out of range", max(lo, topology.TotalNodes))
	}
	return lo, hi, nil
}
