// Package alert is the streaming side of the operation: detectors that
// consume the console event stream in time order and raise the alerts
// Titan's operators acted on in the paper —
//
//   - a card crossing the DBE threshold (the hot-spare pull decision);
//   - an error-class burst (how "the criticality of the [off-the-bus]
//     issue was identified" before the soldering fix);
//   - a code appearing for the first time (Observation 5: new XIDs demand
//     new SEC rules);
//   - a node repeating an application-class error across many distinct
//     jobs (Observation 8: hardware masquerading as application error —
//     the case where OLCF "did not take the node down immediately"
//     because XID 13 was assumed to be software).
//
// Detectors are deliberately simple sliding-window rules: auditable,
// deterministic, and cheap enough to run inline with SEC.
package alert

import (
	"fmt"
	"slices"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Kind labels an alert.
type Kind int

const (
	// CardDBEThreshold fires when one card accumulates the configured
	// number of double bit errors.
	CardDBEThreshold Kind = iota
	// Burst fires when an error class exceeds its burst threshold
	// within the window.
	Burst
	// NewCode fires the first time a code is seen.
	NewCode
	// SuspectNode fires when a node reports an application-class error
	// across enough distinct jobs.
	SuspectNode
)

func (k Kind) String() string {
	switch k {
	case CardDBEThreshold:
		return "card-dbe-threshold"
	case Burst:
		return "burst"
	case NewCode:
		return "new-code"
	case SuspectNode:
		return "suspect-node"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alert is one raised condition.
type Alert struct {
	Kind   Kind
	Time   time.Time
	Code   xid.Code
	Node   topology.NodeID
	Serial gpu.Serial
	Count  int
	Detail string
}

func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s %s: %s",
		a.Time.UTC().Format("2006-01-02 15:04:05"), a.Kind, a.Code, a.Detail)
}

// Config tunes the detectors.
type Config struct {
	// DBEThreshold pulls a card after this many DBEs (0 disables).
	DBEThreshold int
	// BurstWindow and BurstCount: an alert when a code logs BurstCount
	// incidents within BurstWindow (incident filtering is the caller's
	// job; feed filtered streams for application codes).
	BurstWindow time.Duration
	BurstCount  int
	// BurstCodes limits burst detection to these codes (nil = all).
	BurstCodes []xid.Code
	// SuspectJobs: a node is suspect after application-class errors in
	// this many distinct jobs (0 disables).
	SuspectJobs int
	// NewCodes enables first-appearance alerts.
	NewCodes bool
}

// DefaultConfig mirrors OLCF's practices in the paper. The suspect-node
// threshold is deliberately high: buggy debug jobs fault on whichever of
// their nodes loses the race, and first-fit placement re-lands debug
// workloads on the same region, so a low threshold drowns the one real
// Observation 8 node in coincidences.
func DefaultConfig() Config {
	return Config{
		DBEThreshold: 2,
		BurstWindow:  24 * time.Hour,
		BurstCount:   8,
		BurstCodes:   []xid.Code{xid.OffTheBus, xid.DoubleBitError},
		SuspectJobs:  10,
		NewCodes:     true,
	}
}

// Engine consumes events in time order and accumulates alerts.
type Engine struct {
	cfg    Config
	alerts []Alert

	dbePerCard   map[gpu.Serial]int
	dbeAlerted   map[gpu.Serial]bool
	seenCodes    map[xid.Code]bool
	burstable    map[xid.Code]bool
	recent       map[xid.Code][]time.Time
	burstMuted   map[xid.Code]time.Time
	suspectJobs  map[topology.NodeID][]console.JobID // each node's distinct app-error jobs, ascending
	suspectFired map[topology.NodeID]bool
	// incidentSeen dedups application-error incidents: the paper shows
	// the error is reported on every node of the job (Observation 7),
	// so only the first report of a (code, job) pair — the faulting
	// node, which logs first — counts toward suspicion.
	incidentSeen map[incidentKey]bool
	// lastIncident is the key incidentSeen was last asked about (so it is
	// in there): job-wide propagation arrives as a run of one key, and a
	// repeat of it is answered without hashing. Jobs are non-zero, so the
	// zero key matches nothing.
	lastIncident incidentKey
}

type incidentKey struct {
	code xid.Code
	job  console.JobID
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:          cfg,
		dbePerCard:   map[gpu.Serial]int{},
		dbeAlerted:   map[gpu.Serial]bool{},
		seenCodes:    map[xid.Code]bool{},
		recent:       map[xid.Code][]time.Time{},
		burstMuted:   map[xid.Code]time.Time{},
		suspectJobs:  map[topology.NodeID][]console.JobID{},
		suspectFired: map[topology.NodeID]bool{},
		incidentSeen: map[incidentKey]bool{},
	}
	if cfg.BurstCodes != nil {
		e.burstable = map[xid.Code]bool{}
		for _, c := range cfg.BurstCodes {
			e.burstable[c] = true
		}
	}
	return e
}

// Feed processes one event.
func (e *Engine) Feed(ev console.Event) {
	if e.cfg.NewCodes && !e.seenCodes[ev.Code] {
		e.seenCodes[ev.Code] = true
		e.raise(Alert{
			Kind: NewCode, Time: ev.Time, Code: ev.Code, Node: ev.Node,
			Detail: fmt.Sprintf("first occurrence of %s — check SEC rules cover it", ev.Code),
		})
	}

	if e.cfg.DBEThreshold > 0 && ev.Code == xid.DoubleBitError {
		e.dbePerCard[ev.Serial]++
		if e.dbePerCard[ev.Serial] >= e.cfg.DBEThreshold && !e.dbeAlerted[ev.Serial] {
			e.dbeAlerted[ev.Serial] = true
			e.raise(Alert{
				Kind: CardDBEThreshold, Time: ev.Time, Code: ev.Code,
				Node: ev.Node, Serial: ev.Serial, Count: e.dbePerCard[ev.Serial],
				Detail: fmt.Sprintf("card %s reached %d DBEs — pull to hot-spare cluster", ev.Serial, e.dbePerCard[ev.Serial]),
			})
		}
	}

	if e.cfg.BurstCount > 0 && e.cfg.BurstWindow > 0 && (e.burstable == nil || e.burstable[ev.Code]) {
		times := append(e.recent[ev.Code], ev.Time)
		cutoff := ev.Time.Add(-e.cfg.BurstWindow)
		keep := times[:0]
		for _, t := range times {
			if t.After(cutoff) {
				keep = append(keep, t)
			}
		}
		e.recent[ev.Code] = keep
		if len(keep) >= e.cfg.BurstCount {
			// Mute repeat alerts for a window after firing.
			if muted, ok := e.burstMuted[ev.Code]; !ok || ev.Time.Sub(muted) > e.cfg.BurstWindow {
				e.burstMuted[ev.Code] = ev.Time
				e.raise(Alert{
					Kind: Burst, Time: ev.Time, Code: ev.Code, Node: ev.Node, Count: len(keep),
					Detail: fmt.Sprintf("%d %s events within %v — systemic issue?", len(keep), ev.Code, e.cfg.BurstWindow),
				})
			}
		}
	}

	if e.cfg.SuspectJobs > 0 && ev.Job != 0 {
		if info, ok := xid.Lookup(ev.Code); ok && info.AppRelated {
			k := incidentKey{ev.Code, ev.Job}
			seen := k == e.lastIncident || e.incidentSeen[k]
			e.lastIncident = k
			if seen {
				return // job-wide propagation, not the faulting node
			}
			e.incidentSeen[k] = true
			jobs := e.suspectJobs[ev.Node]
			if i, found := slices.BinarySearch(jobs, ev.Job); !found {
				jobs = slices.Insert(jobs, i, ev.Job)
				e.suspectJobs[ev.Node] = jobs
			}
			if len(jobs) >= e.cfg.SuspectJobs && !e.suspectFired[ev.Node] {
				e.suspectFired[ev.Node] = true
				e.raise(Alert{
					Kind: SuspectNode, Time: ev.Time, Code: ev.Code, Node: ev.Node,
					Serial: ev.Serial, Count: len(jobs),
					Detail: fmt.Sprintf("node %s reported %s across %d distinct jobs — likely hardware despite the app-error code (Observation 8)",
						topology.LocationOf(ev.Node).CName(), ev.Code, len(jobs)),
				})
			}
		}
	}
}

// Run feeds a whole ordered stream.
func (e *Engine) Run(events []console.Event) {
	for _, ev := range events {
		e.Feed(ev)
	}
}

// Alerts returns everything raised so far, in firing order.
func (e *Engine) Alerts() []Alert {
	out := make([]Alert, len(e.alerts))
	copy(out, e.alerts)
	return out
}

// Count returns how many alerts have been raised so far, without
// copying the backing slice — cheap enough for per-event bookkeeping on
// a streaming path.
func (e *Engine) Count() int { return len(e.alerts) }

// OfKind filters the raised alerts.
func (e *Engine) OfKind(k Kind) []Alert {
	var out []Alert
	for _, a := range e.alerts {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

func (e *Engine) raise(a Alert) { e.alerts = append(e.alerts, a) }
