package scheduler

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"titanre/internal/topology"
	"titanre/internal/workload"
)

// placementOf returns the placement of nodes, in the given order, over
// the identity order.
func placementOf(nodes ...topology.NodeID) Placement {
	p := Placement{order: identityOrder}
	for _, n := range nodes {
		p.spans = append(p.spans, span{int32(n), 1})
	}
	return p
}

func TestCompressParseNodes(t *testing.T) {
	cases := []struct {
		nodes []topology.NodeID
		want  string
	}{
		{nil, "-"},
		{[]topology.NodeID{5}, "5"},
		{[]topology.NodeID{5, 6, 7}, "5-7"},
		{[]topology.NodeID{7, 5, 6, 40, 96, 97}, "5-7,40,96-97"},
	}
	for _, c := range cases {
		got := CompressNodes(placementOf(c.nodes...))
		if got != c.want {
			t.Errorf("CompressNodes(%v) = %q, want %q", c.nodes, got, c.want)
		}
		back, err := ParseNodes(got)
		if err != nil {
			t.Fatal(err)
		}
		sorted := slices.Clone(c.nodes)
		slices.Sort(sorted)
		if ids := back.AppendTo(nil); !slices.Equal(ids, sorted) {
			t.Errorf("round trip of %q = %v, want %v", got, ids, sorted)
		}
	}
}

func TestParseNodesErrors(t *testing.T) {
	for s, want := range map[string]string{
		"x":       `bad node id "x"`,
		"5-x":     `bad node range "5-x"`,
		"x-5":     `bad node range "x-5"`,
		"9-5":     `inverted node range "9-5"`,
		"999999":  "node id 999999 out of range",
		"5-99999": "node id 19200 out of range",
		"7,-3":    `bad node range "-3"`,
	} {
		if _, err := ParseNodes(s); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseNodes(%q) = %v, want an error containing %q", s, err, want)
		}
	}
	if p, err := ParseNodes(""); err != nil || p.Len() != 0 {
		t.Error("empty string should parse to an empty placement")
	}
}

func TestJobLogRoundTrip(t *testing.T) {
	t0 := time.Date(2014, 5, 1, 12, 0, 0, 0, time.UTC)
	jobs := []workload.Job{
		mkJob(3, t0, 100, 2*time.Hour),
		mkJob(9, t0.Add(time.Minute), 5, 30*time.Minute),
	}
	jobs[0].Class = workload.MemoryHog
	jobs[0].Buggy = true
	jobs[0].MaxMemPerNodeGB = 5.25
	jobs[0].AvgMemPerNodeGB = 4.5
	records := Schedule(jobs, TorusFit)

	var buf bytes.Buffer
	if err := WriteJobLog(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJobLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Fatalf("read %d records, want %d", len(back), len(records))
	}
	for i := range records {
		a, b := records[i], back[i]
		if a.ID != b.ID || a.Spec.User != b.Spec.User || a.Spec.Class != b.Spec.Class ||
			!a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
			a.Spec.Buggy != b.Spec.Buggy ||
			a.Spec.MaxMemPerNodeGB != b.Spec.MaxMemPerNodeGB {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, b, a)
		}
		// ReadJobLog returns nodes sorted by dense ID.
		want := a.Nodes.AppendTo(nil)
		slices.Sort(want)
		if got := b.Nodes.AppendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("record %d nodes read back as %v, want %v", i, got, want)
		}
		if b.Spec.Nodes != len(want) {
			t.Errorf("record %d Spec.Nodes = %d, want %d", i, b.Spec.Nodes, len(want))
		}
	}
}

func TestReadJobLogErrors(t *testing.T) {
	bad := []string{
		"1\t2\tthroughput\t2014-05-01T12:00:00Z\t2014-05-01T12:00:00Z\t2014-05-01T13:00:00Z\t1.0\t0.5\ttrue", // 9 fields
		"x\t2\tthroughput\t2014-05-01T12:00:00Z\t2014-05-01T12:00:00Z\t2014-05-01T13:00:00Z\t1.0\t0.5\ttrue\t5",
		"1\t2\tbogus-class\t2014-05-01T12:00:00Z\t2014-05-01T12:00:00Z\t2014-05-01T13:00:00Z\t1.0\t0.5\ttrue\t5",
		"1\t2\tthroughput\tnot-a-time\t2014-05-01T12:00:00Z\t2014-05-01T13:00:00Z\t1.0\t0.5\ttrue\t5",
		"1\t2\tthroughput\t2014-05-01T12:00:00Z\t2014-05-01T12:00:00Z\t2014-05-01T13:00:00Z\t1.0\t0.5\tmaybe\t5",
	}
	for _, line := range bad {
		if _, err := ReadJobLog(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted malformed line %q", line)
		}
	}
	// Comments and blank lines are fine.
	recs, err := ReadJobLog(strings.NewReader("# header\n\n"))
	if err != nil || len(recs) != 0 {
		t.Error("comments/blank lines should parse to empty log")
	}
}
