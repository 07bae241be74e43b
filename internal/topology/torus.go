package topology

// Folded-torus linearization.
//
// Titan's Gemini interconnect is a 3-D torus. To avoid the very long
// wrap-around cables of a classic torus, the cabinets in each row are
// cabled in a folded (interleaved) order: the torus visits cabinet columns
// 0, 2, 4, 6 and then folds back through 7, 5, 3, 1. Consecutive torus
// coordinates therefore land in *alternating* physical cabinets. The batch
// scheduler allocates nodes in torus order to keep jobs compact on the
// network, which is why an application error reported on every node of a
// job paints alternating cabinets on a physical floor map (paper Fig. 12,
// Observation 7).

// foldColumn maps a torus position along a row (0..Columns-1) to the
// physical cabinet column it is cabled to.
func foldColumn(pos int) int {
	if pos < (Columns+1)/2 {
		return pos * 2 // 0,2,4,6
	}
	return (Columns-pos)*2 - 1 // 7,5,3,1
}

// unfoldColumn is the inverse of foldColumn: given a physical column it
// returns the torus position along the row.
func unfoldColumn(col int) int {
	if col%2 == 0 {
		return col / 2
	}
	return Columns - (col+1)/2
}

// TorusIndex returns the position of a node in the folded-torus
// linearization the scheduler allocates along. Nodes that are adjacent in
// this ordering are close on the Gemini network; consecutive cabinets in
// this ordering alternate across the physical floor.
func TorusIndex(n NodeID) int {
	loc := LocationOf(n)
	torusCab := loc.Row*Columns + unfoldColumn(loc.Column)
	within := (loc.Cage*BladesPerCage+loc.Blade)*NodesPerBlade + loc.Node
	return torusCab*NodesPerCabinet + within
}

// NodeAtTorusIndex is the inverse of TorusIndex.
func NodeAtTorusIndex(idx int) NodeID {
	torusCab := idx / NodesPerCabinet
	within := idx % NodesPerCabinet
	row := torusCab / Columns
	pos := torusCab % Columns
	col := foldColumn(pos)
	node := within % NodesPerBlade
	within /= NodesPerBlade
	blade := within % BladesPerCage
	cage := within / BladesPerCage
	return Location{Row: row, Column: col, Cage: cage, Blade: blade, Node: node}.ID()
}
