package gpu

// Dynamic page retirement.
//
// NVIDIA introduced dynamic page retirement (surfaced as XID 63/64) in
// drivers deployed on Titan from January 2014. A framebuffer page is
// retired under two circumstances: (1) one double bit error on the page,
// or (2) two single bit errors on the same page. The retired page
// addresses are stored in the InfoROM; at driver load the framebuffer
// keeps those pages away from applications, extending the useful life of
// the card. The application crashes in the DBE case (SECDED cannot
// correct) but not in the two-SBE case (both errors were corrected).

// MaxRetiredPages is the InfoROM retirement-table capacity; NVIDIA sizes
// it at 64 entries, after which the card must be serviced (RMA).
const MaxRetiredPages = 64

// RetireCause says which rule retired a page.
type RetireCause int

const (
	// RetiredByDBE: a double bit error hit the page.
	RetiredByDBE RetireCause = iota
	// RetiredByTwoSBE: a second single bit error hit an already-degraded
	// page.
	RetiredByTwoSBE
)

func (c RetireCause) String() string {
	if c == RetiredByDBE {
		return "double bit error"
	}
	return "two single bit errors on the same page"
}

// RetiredPage is one InfoROM retirement record.
type RetiredPage struct {
	Page  int32
	Cause RetireCause
}

// RetirementState is the per-card page-retirement bookkeeping. The zero
// value is ready to use.
type RetirementState struct {
	// sbeSeen marks device-memory pages that have one corrected SBE on
	// record; a second SBE on such a page retires it.
	sbeSeen map[int32]bool
	// retired is the ordered InfoROM retirement list.
	retired []RetiredPage
	// retiredSet provides O(1) is-retired queries.
	retiredSet map[int32]bool
	// Enabled gates the feature: drivers before Jan 2014 did not retire
	// pages and emitted no XID 63/64. The simulator flips this at the
	// driver-upgrade epoch.
	Enabled bool
}

func (r *RetirementState) init() {
	if r.sbeSeen == nil {
		r.sbeSeen = make(map[int32]bool)
		r.retiredSet = make(map[int32]bool)
	}
}

// recordSBE notes a corrected SBE on a device-memory page and retires the
// page when it is the second hit. It reports whether a retirement fired.
func (r *RetirementState) recordSBE(page int32) bool {
	if !r.Enabled {
		return false
	}
	r.init()
	if r.retiredSet[page] {
		return false // already out of service
	}
	if r.sbeSeen[page] {
		r.retire(page, RetiredByTwoSBE)
		return true
	}
	r.sbeSeen[page] = true
	return false
}

// recordDBE retires the page unconditionally (first rule). It reports
// whether a retirement fired (false when the page was already retired or
// the feature is disabled).
func (r *RetirementState) recordDBE(page int32) bool {
	if !r.Enabled {
		return false
	}
	r.init()
	if r.retiredSet[page] {
		return false
	}
	r.retire(page, RetiredByDBE)
	return true
}

func (r *RetirementState) retire(page int32, cause RetireCause) {
	r.retired = append(r.retired, RetiredPage{Page: page, Cause: cause})
	r.retiredSet[page] = true
	delete(r.sbeSeen, page)
}

// RecordSBE is the exported form of the second-SBE retirement rule, for
// online consumers (titand) that replay the machine from console
// records rather than through a Card. It reports whether a retirement
// fired.
func (r *RetirementState) RecordSBE(page int32) bool { return r.recordSBE(page) }

// RecordDBE is the exported form of the one-DBE retirement rule; see
// RecordSBE.
func (r *RetirementState) RecordDBE(page int32) bool { return r.recordDBE(page) }

// Retired returns the InfoROM retirement list in retirement order.
func (r *RetirementState) Retired() []RetiredPage {
	out := make([]RetiredPage, len(r.retired))
	copy(out, r.retired)
	return out
}

// PendingSBEPages returns how many pages currently carry exactly one SBE
// and would retire on the next hit.
func (r *RetirementState) PendingSBEPages() int { return len(r.sbeSeen) }

// Exhausted reports whether the retirement table is full — the card has
// no headroom left and should be serviced.
func (r *RetirementState) Exhausted() bool { return len(r.retired) >= MaxRetiredPages }

// Headroom returns how many more pages can be retired before exhaustion.
func (r *RetirementState) Headroom() int {
	h := MaxRetiredPages - len(r.retired)
	if h < 0 {
		return 0
	}
	return h
}
