package gpu

import (
	"time"

	"titanre/internal/topology"
)

// Fleet maps every node slot to the physical card currently installed in
// it and owns the pool of spare cards. It implements OLCF's operational
// policy from the paper: a card that encounters a threshold number of
// double bit errors is pulled from production into the hot-spare cluster
// (for rigorous stress testing and eventual return to the vendor) and a
// spare takes its place.
type Fleet struct {
	// slot[n] is the card installed in node n; nil for the unpopulated
	// service slots.
	slot []*Card
	// bySerial indexes every card ever manufactured for this fleet.
	bySerial map[Serial]*Card
	// spares holds cards waiting to be swapped in.
	spares []*Card
	// hotSpare holds cards pulled from production.
	hotSpare []*Card
	// nextSerial is the serial the next manufactured card receives.
	nextSerial Serial
	// SwapThreshold is how many DBE incidents a card may encounter
	// before it is pulled. Zero or negative disables the policy.
	SwapThreshold int
}

// NewFleet populates every compute slot with a fresh card and manufactures
// spareCount spares. Slots are populated in dense node order; the last
// topology.ServiceNodes slots are left empty, mirroring Titan's 18,688
// compute nodes out of 19,200 physical slots.
func NewFleet(spareCount int) *Fleet {
	f := &Fleet{
		slot:          make([]*Card, topology.TotalNodes),
		bySerial:      make(map[Serial]*Card),
		SwapThreshold: 1,
	}
	for n := 0; n < topology.TotalComputeGPUs; n++ {
		f.slot[n] = f.manufacture()
	}
	for i := 0; i < spareCount; i++ {
		f.spares = append(f.spares, f.manufacture())
	}
	return f
}

func (f *Fleet) manufacture() *Card {
	f.nextSerial++
	c := NewCard(f.nextSerial)
	f.bySerial[c.Serial] = c
	return c
}

// CardAt returns the card installed in node n, or nil for an empty slot.
func (f *Fleet) CardAt(n topology.NodeID) *Card {
	if !n.Valid() {
		return nil
	}
	return f.slot[n]
}

// CardBySerial returns a card by serial, or nil when unknown.
func (f *Fleet) CardBySerial(s Serial) *Card { return f.bySerial[s] }

// EnableRetirement switches on dynamic page retirement on every card,
// modeling the driver upgrade Titan received in January 2014.
func (f *Fleet) EnableRetirement() {
	for _, c := range f.bySerial {
		c.Retirement.Enabled = true
	}
}

// NoteDBE applies the hot-spare policy after a console-visible DBE on node
// n at time now. When the card's DBE count reaches the threshold the card
// is moved to the hot-spare cluster and a spare (or a freshly manufactured
// card when no spare remains) is installed. It returns the removed card,
// or nil when no swap happened.
func (f *Fleet) NoteDBE(n topology.NodeID, now time.Time) *Card {
	c := f.CardAt(n)
	if c == nil || f.SwapThreshold <= 0 || c.DBEEvents < f.SwapThreshold {
		return nil
	}
	c.Retired = true
	c.RetiredAt = now
	f.hotSpare = append(f.hotSpare, c)
	var repl *Card
	if len(f.spares) > 0 {
		repl = f.spares[0]
		f.spares = f.spares[1:]
	} else {
		repl = f.manufacture()
	}
	// The replacement inherits the slot's retirement-feature setting.
	repl.Retirement.Enabled = c.Retirement.Enabled
	f.slot[n] = repl
	return c
}

// HotSpareCluster returns the cards pulled from production so far.
func (f *Fleet) HotSpareCluster() []*Card {
	out := make([]*Card, len(f.hotSpare))
	copy(out, f.hotSpare)
	return out
}

// Cards returns every card currently installed, keyed by node.
func (f *Fleet) Cards() map[topology.NodeID]*Card {
	out := make(map[topology.NodeID]*Card, topology.TotalComputeGPUs)
	for n, c := range f.slot {
		if c != nil {
			out[topology.NodeID(n)] = c
		}
	}
	return out
}

// ManufacturedCount returns how many cards were ever manufactured.
func (f *Fleet) ManufacturedCount() int { return int(f.nextSerial) }
