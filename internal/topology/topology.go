// Package topology models the physical organization of the Titan
// supercomputer at the Oak Ridge Leadership Computing Facility.
//
// Titan's basic building block is a node holding one AMD Opteron CPU and
// one NVIDIA K20X GPU. Two nodes share a Gemini interconnect router. Four
// nodes form a blade (also called a slot), eight blades form a cage, three
// cages form a cabinet, and 200 cabinets are arranged on the machine-room
// floor as 25 rows by 8 columns, for a total of 18,688 nodes and therefore
// 18,688 GPUs.
//
// The package provides the coordinate system every spatial analysis in the
// study operates on: Cray-style cnames (c3-2c1s4n2), dense linear node
// indices, the folded-torus linearization that governs how the scheduler
// lays jobs out across cabinets, and the thermal model (upper cages run
// hotter than lower cages in the same cabinet, by roughly 10 degrees
// Fahrenheit between the bottom and top cage).
package topology

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Machine geometry constants for Titan.
const (
	Rows             = 25 // cabinet rows on the floor
	Columns          = 8  // cabinet columns on the floor
	Cabinets         = Rows * Columns
	CagesPerCabinet  = 3
	BladesPerCage    = 8
	NodesPerBlade    = 4
	NodesPerCage     = BladesPerCage * NodesPerBlade
	NodesPerCabinet  = CagesPerCabinet * NodesPerCage
	TotalNodes       = Cabinets * NodesPerCabinet // 19,200 slots; 18,688 in service
	ServiceNodes     = 512                        // slots not populated with compute GPUs
	TotalComputeGPUs = 18688                      // compute nodes with K20X GPUs
	NodesPerRouter   = 2                          // one Gemini router per two nodes
)

// NodeID is a dense index in [0, TotalNodes) identifying a physical node
// slot. The mapping to physical coordinates is fixed: column-major over
// cabinets, then cage, blade, and node within the blade.
type NodeID int

// Valid reports whether the node ID addresses a physical slot.
func (n NodeID) Valid() bool { return n >= 0 && n < TotalNodes }

// Location is the full physical coordinate of a node slot.
type Location struct {
	Row    int // 0..Rows-1      (cabinet row on the floor)
	Column int // 0..Columns-1   (cabinet column on the floor)
	Cage   int // 0..CagesPerCabinet-1, 0 = bottom (coolest), 2 = top (hottest)
	Blade  int // 0..BladesPerCage-1  (slot within the cage)
	Node   int // 0..NodesPerBlade-1  (node within the blade)
}

// Cabinet returns the dense cabinet index in [0, Cabinets).
func (l Location) Cabinet() int { return l.Row*Columns + l.Column }

// Valid reports whether every coordinate is within the machine's bounds.
func (l Location) Valid() bool {
	return l.Row >= 0 && l.Row < Rows &&
		l.Column >= 0 && l.Column < Columns &&
		l.Cage >= 0 && l.Cage < CagesPerCabinet &&
		l.Blade >= 0 && l.Blade < BladesPerCage &&
		l.Node >= 0 && l.Node < NodesPerBlade
}

// ID converts physical coordinates to the dense node index.
func (l Location) ID() NodeID {
	return NodeID(((l.Cabinet()*CagesPerCabinet+l.Cage)*BladesPerCage+l.Blade)*NodesPerBlade + l.Node)
}

// LocationOf converts a dense node index back to physical coordinates.
func LocationOf(n NodeID) Location {
	i := int(n)
	node := i % NodesPerBlade
	i /= NodesPerBlade
	blade := i % BladesPerCage
	i /= BladesPerCage
	cage := i % CagesPerCabinet
	i /= CagesPerCabinet
	return Location{
		Row:    i / Columns,
		Column: i % Columns,
		Cage:   cage,
		Blade:  blade,
		Node:   node,
	}
}

// CName renders the location as a Cray component name, e.g. "c3-2c1s4n2"
// meaning cabinet column 3, row 2, cage 1, slot (blade) 4, node 2. This is
// the identifier format that appears in Titan console logs.
func (l Location) CName() string {
	var b strings.Builder
	b.Grow(16)
	b.WriteByte('c')
	b.WriteString(strconv.Itoa(l.Column))
	b.WriteByte('-')
	b.WriteString(strconv.Itoa(l.Row))
	b.WriteByte('c')
	b.WriteString(strconv.Itoa(l.Cage))
	b.WriteByte('s')
	b.WriteString(strconv.Itoa(l.Blade))
	b.WriteByte('n')
	b.WriteString(strconv.Itoa(l.Node))
	return b.String()
}

// String implements fmt.Stringer using the cname form.
func (l Location) String() string { return l.CName() }

// cnameTab interns the cname of every node slot. The table is built once
// on first use; after that CNameOf hands out shared strings, which is
// what keeps the console-log encoder allocation-free (a log renders each
// node's cname millions of times, but there are only 19,200 distinct
// ones).
var (
	cnameOnce sync.Once
	cnameTab  []string
)

// CNameOf returns the interned cname for a node slot. Out-of-range IDs
// fall back to rendering a fresh string so callers never index out of
// bounds.
func CNameOf(n NodeID) string {
	if !n.Valid() {
		return LocationOf(n).CName()
	}
	cnameOnce.Do(func() {
		tab := make([]string, TotalNodes)
		for i := range tab {
			tab[i] = LocationOf(NodeID(i)).CName()
		}
		cnameTab = tab
	})
	return cnameTab[n]
}

// ParseCName parses a Cray component name of the form cX-YcCsSnN into a
// Location. It returns an error when the syntax is malformed or any
// coordinate is out of the machine's bounds.
func ParseCName(s string) (Location, error) {
	orig := s
	fail := func() (Location, error) {
		return Location{}, fmt.Errorf("topology: malformed cname %q", orig)
	}
	if len(s) == 0 || s[0] != 'c' {
		return fail()
	}
	s = s[1:]
	dash := strings.IndexByte(s, '-')
	if dash < 0 {
		return fail()
	}
	col, err := strconv.Atoi(s[:dash])
	if err != nil {
		return fail()
	}
	s = s[dash+1:]
	ci := strings.IndexByte(s, 'c')
	if ci < 0 {
		return fail()
	}
	row, err := strconv.Atoi(s[:ci])
	if err != nil {
		return fail()
	}
	s = s[ci+1:]
	si := strings.IndexByte(s, 's')
	if si < 0 {
		return fail()
	}
	cage, err := strconv.Atoi(s[:si])
	if err != nil {
		return fail()
	}
	s = s[si+1:]
	ni := strings.IndexByte(s, 'n')
	if ni < 0 {
		return fail()
	}
	blade, err := strconv.Atoi(s[:ni])
	if err != nil {
		return fail()
	}
	node, err := strconv.Atoi(s[ni+1:])
	if err != nil {
		return fail()
	}
	loc := Location{Row: row, Column: col, Cage: cage, Blade: blade, Node: node}
	if !loc.Valid() {
		return Location{}, fmt.Errorf("topology: cname %q out of machine bounds", orig)
	}
	return loc, nil
}

// ParseNodeID parses a cname directly to a dense node index.
func ParseNodeID(s string) (NodeID, error) {
	loc, err := ParseCName(s)
	if err != nil {
		return -1, err
	}
	return loc.ID(), nil
}

// All iterates over every node slot in dense order, calling fn for each.
// Iteration stops early if fn returns false.
func All(fn func(NodeID) bool) {
	for n := NodeID(0); n < TotalNodes; n++ {
		if !fn(n) {
			return
		}
	}
}

// CageOf is a convenience accessor for the cage coordinate of a node.
func CageOf(n NodeID) int { return LocationOf(n).Cage }
