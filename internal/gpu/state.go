package gpu

import "titanre/internal/bincode"

// Checkpoint encoding: a restarted titand restores each card's counters
// and retirement machine from these bytes instead of replaying the
// history that built them.

// AppendState appends the counters to dst: a mask of the non-zero ones
// (single-bit structures in the low bits), then those, in mask order. A
// card's counters are almost all zero, so it is mostly one byte.
func (c *ErrorCounts) AppendState(dst []byte) []byte {
	var mask uint64
	for i := range NumStructures {
		if c.SingleBit[i] != 0 {
			mask |= 1 << i
		}
		if c.DoubleBit[i] != 0 {
			mask |= 1 << (NumStructures + i)
		}
	}
	dst = bincode.AppendUint(dst, mask)
	for i := range 2 * NumStructures {
		if mask&(1<<i) != 0 {
			dst = bincode.AppendInt(dst, *c.at(i))
		}
	}
	return dst
}

// RestoreState reads counters AppendState wrote.
func (c *ErrorCounts) RestoreState(r *bincode.Reader) {
	*c = ErrorCounts{}
	mask := r.Uint()
	if mask >= 1<<(2*NumStructures) {
		r.Fail("counter mask %#x", mask)
		return
	}
	for i := range 2 * NumStructures {
		if mask&(1<<i) != 0 {
			if *c.at(i) = r.Int(); *c.at(i) == 0 {
				r.Fail("counter %d masked in but zero", i)
			}
		}
	}
}

// at addresses counter i of the mask's numbering.
func (c *ErrorCounts) at(i int) *int64 {
	if i < NumStructures {
		return &c.SingleBit[i]
	}
	return &c.DoubleBit[i-NumStructures]
}

// AppendState appends the retirement machine to dst: Enabled, the pages
// holding one SBE in ascending order, then the retirement list in
// retirement order.
func (r *RetirementState) AppendState(dst []byte) []byte {
	dst = bincode.AppendBool(dst, r.Enabled)
	dst = bincode.AppendUint(dst, uint64(len(r.sbeSeen)))
	for _, page := range bincode.SortedKeys(r.sbeSeen) {
		dst = bincode.AppendInt(dst, int64(page))
	}
	dst = bincode.AppendUint(dst, uint64(len(r.retired)))
	for _, p := range r.retired {
		dst = bincode.AppendInt(bincode.AppendInt(dst, int64(p.Page)), int64(p.Cause))
	}
	return dst
}

// RestoreState replaces the machine with one AppendState wrote. A state
// the rules could not have reached — a page listed twice, retired and
// pending at once, an unknown cause — fails the reader.
func (r *RetirementState) RestoreState(br *bincode.Reader) {
	*r = RetirementState{Enabled: br.Bool()}
	pending := br.Count(1)
	if pending > 0 {
		r.init()
	}
	var prev int64
	for i := 0; i < pending && br.Err() == nil; i++ {
		page := br.Int()
		if page != int64(int32(page)) || (i > 0 && page <= prev) {
			br.Fail("SBE page %d out of order", page)
			return
		}
		r.sbeSeen[int32(page)] = true
		prev = page
	}
	retired := br.Count(2)
	if retired > 0 {
		r.init()
		r.retired = make([]RetiredPage, 0, retired)
	}
	for i := 0; i < retired && br.Err() == nil; i++ {
		page, cause := br.Int(), RetireCause(br.Int())
		if page != int64(int32(page)) || r.retiredSet[int32(page)] || r.sbeSeen[int32(page)] || (cause != RetiredByDBE && cause != RetiredByTwoSBE) {
			br.Fail("bad retirement of page %d (cause %d)", page, cause)
			return
		}
		r.retired = append(r.retired, RetiredPage{Page: int32(page), Cause: cause})
		r.retiredSet[int32(page)] = true
	}
}
