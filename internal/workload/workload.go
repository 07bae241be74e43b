// Package workload generates the synthetic batch-job population the study
// runs against: a user community with heterogeneous job profiles,
// project-deadline rhythms that make debug-and-test error storms bursty
// (paper Section 3.2), and the resource-consumption shapes of paper
// Fig. 21 / Observation 14 — the biggest-memory jobs run on modest node
// counts with below-average GPU core-hours, the longest wall-clock jobs
// are often small, and core-hours track node counts.
package workload

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/faults"
)

// UserID identifies a user account; the paper uses userID as a proxy for
// the application a job runs (Observation 13).
type UserID int32

// Class is a coarse user archetype; each produces a distinct corner of the
// Fig. 21 scatter.
type Class int

const (
	// Capability users run very large, moderately long jobs with modest
	// per-node memory (scaled-out science runs).
	Capability Class = iota
	// Throughput users run mid-sized jobs for long wall times.
	Throughput
	// MemoryHog users run small-node jobs that consume the most memory
	// and run long (Observation 14's "smaller scale workloads consume
	// the memory resource most").
	MemoryHog
	// Debugger users run many small short jobs, frequently buggy; they
	// drive the bursty application XIDs (Fig. 10).
	Debugger
	numClasses
)

func (c Class) String() string {
	switch c {
	case Capability:
		return "capability"
	case Throughput:
		return "throughput"
	case MemoryHog:
		return "memory-hog"
	case Debugger:
		return "debugger"
	default:
		return "unknown"
	}
}

// Job is one generated batch job, before scheduling.
type Job struct {
	User   UserID
	Class  Class
	Submit time.Time
	// Nodes is the requested (and used) node count.
	Nodes int
	// Runtime is the actual execution duration once started.
	Runtime time.Duration
	// MaxMemPerNodeGB is the peak GPU memory used on the busiest node.
	MaxMemPerNodeGB float64
	// AvgMemPerNodeGB is the average GPU memory held over the run.
	AvgMemPerNodeGB float64
	// Buggy marks debug/test runs that will fail with an
	// application-related XID partway through execution.
	Buggy bool
}

// GPUCoreHours returns GPU node-hours, the unit behind the "GPU core
// hours" axes of Figs. 19-21 (the CUDA-core count is a constant factor of
// 2688 per node and cancels out of every correlation).
func (j Job) GPUCoreHours() float64 {
	return float64(j.Nodes) * j.Runtime.Hours()
}

// MaxMemoryGB is the peak GPU memory used on the job's busiest node
// (Fig. 16's metric). The paper's resource-utilization records are
// per-node: Observation 14's "jobs consuming the maximum amount of memory
// may be running on a relatively smaller node count" is only coherent for
// a per-node metric, since an aggregate one would trivially scale with
// job size.
func (j Job) MaxMemoryGB() float64 {
	return j.MaxMemPerNodeGB
}

// TotalMemoryGBh is the integral of per-node memory held over the run, in
// GB-hours on the busiest node (Fig. 17's metric; per-node for the same
// reason as MaxMemoryGB).
func (j Job) TotalMemoryGBh() float64 {
	return j.AvgMemPerNodeGB * j.Runtime.Hours()
}

// UserProfile is the stochastic signature of one user.
type UserProfile struct {
	ID    UserID
	Class Class
	// JobsPerDay is the user's mean submission rate.
	JobsPerDay float64
	// BugProbability is the chance any one job is a buggy debug run.
	BugProbability float64
}

// Params configures the generator.
type Params struct {
	Users int
	// ActivityScale multiplies every user's submission rate; it tunes
	// machine utilization without reshaping the population.
	ActivityScale float64
	// ClassMix is the probability of each class when drawing users.
	ClassMix [4]float64
	// DeadlineEvery and DeadlineWindow make submission (and bugginess)
	// spike periodically: the week before a recurring deadline sees
	// DeadlineBoost times the debug activity.
	DeadlineEvery  time.Duration
	DeadlineWindow time.Duration
	DeadlineBoost  float64
}

// DefaultParams returns the study calibration: 300 users dominated by
// throughput/capability science teams with a deadline rhythm of roughly
// six weeks (conference and allocation cycles).
func DefaultParams() Params {
	return Params{
		Users:          300,
		ActivityScale:  1,
		ClassMix:       [4]float64{0.20, 0.40, 0.15, 0.25},
		DeadlineEvery:  42 * 24 * time.Hour,
		DeadlineWindow: 7 * 24 * time.Hour,
		DeadlineBoost:  4,
	}
}

// Generator draws users and their job streams.
type Generator struct {
	params Params
	users  []UserProfile
}

// NewGenerator builds the user population with the given parameters.
func NewGenerator(rng *rand.Rand, p Params) *Generator {
	g := &Generator{params: p}
	mix := p.ClassMix[:]
	for i := 0; i < p.Users; i++ {
		scale := p.ActivityScale
		if scale <= 0 {
			scale = 1
		}
		class := Class(faults.Categorical(rng, mix))
		prof := UserProfile{ID: UserID(i + 1), Class: class}
		switch class {
		case Capability:
			prof.JobsPerDay = (0.3 + rng.Float64()*0.8) * scale
			prof.BugProbability = 0.01
		case Throughput:
			prof.JobsPerDay = (1 + rng.Float64()*3) * scale
			prof.BugProbability = 0.015
		case MemoryHog:
			prof.JobsPerDay = (0.5 + rng.Float64()*1.5) * scale
			prof.BugProbability = 0.01
		case Debugger:
			prof.JobsPerDay = (2 + rng.Float64()*6) * scale
			prof.BugProbability = 0.08
		}
		g.users = append(g.users, prof)
	}
	return g
}

// Users returns the generated population.
func (g *Generator) Users() []UserProfile {
	out := make([]UserProfile, len(g.users))
	copy(out, g.users)
	return out
}

// deadlinePressure returns the activity multiplier at time t: elevated in
// the window leading up to each recurring deadline.
func (g *Generator) deadlinePressure(start time.Time, t time.Time) float64 {
	p := g.params
	if p.DeadlineEvery <= 0 || p.DeadlineBoost <= 1 {
		return 1
	}
	sinceStart := t.Sub(start) % p.DeadlineEvery
	untilDeadline := p.DeadlineEvery - sinceStart
	if untilDeadline <= p.DeadlineWindow {
		return p.DeadlineBoost
	}
	return 1
}

// userJobs draws one user's complete submission stream from the given
// random stream.
func (g *Generator) userJobs(rng *rand.Rand, u UserProfile, start, end time.Time) []Job {
	var jobs []Job
	t := start
	for {
		// Draw the next submission with the rate active *now*;
		// thinning against the boosted rate keeps it exact enough
		// for a day-scale rhythm.
		maxRate := u.JobsPerDay * g.params.DeadlineBoost / 24 // per hour
		if g.params.DeadlineBoost < 1 {
			maxRate = u.JobsPerDay / 24
		}
		gap := faults.Exponential(rng, maxRate)
		t = t.Add(time.Duration(gap * float64(time.Hour)))
		if !t.Before(end) {
			break
		}
		pressure := 1.0
		if u.Class == Debugger {
			pressure = g.deadlinePressure(start, t)
		}
		rate := u.JobsPerDay / 24 * pressure
		if rng.Float64()*maxRate > rate {
			continue
		}
		jobs = append(jobs, g.drawJob(rng, u, t))
	}
	return jobs
}

// userJobStream is the stream-id base for per-user job streams (see
// faults.DeriveRNG); the user's index is added to it.
const userJobStream uint64 = 0x4a0b_0000_0000

// GenerateJobs draws every job submitted in [start, end), ordered by
// submission time. Deadline pressure multiplies the submission rate of
// Debugger users (and their bug probability is already high), which
// concentrates application-error storms into deadline weeks. Every user
// has an independent random stream derived from (seed, user index) and
// the streams are generated concurrently, so the result depends only on
// the seed and the generator's parameters — never on GOMAXPROCS or
// goroutine scheduling.
func (g *Generator) GenerateJobs(seed int64, start, end time.Time) []Job {
	perUser := make([][]Job, len(g.users))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers(len(g.users)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(g.users) {
					return
				}
				rng := faults.DeriveRNG(seed, userJobStream+uint64(i))
				perUser[i] = g.userJobs(rng, g.users[i], start, end)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, js := range perUser {
		total += len(js)
	}
	jobs := make([]Job, 0, total)
	for _, js := range perUser {
		jobs = append(jobs, js...)
	}
	sortJobs(jobs)
	return jobs
}

// workers bounds a worker pool to the available parallelism and the
// amount of work.
func workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (g *Generator) drawJob(rng *rand.Rand, u UserProfile, submit time.Time) Job {
	j := Job{User: u.ID, Class: u.Class, Submit: submit}
	switch u.Class {
	case Capability:
		j.Nodes = clampNodes(int(faults.LogNormal(rng, 6.8, 0.8))) // median ~900
		j.Runtime = hours(0.5 + faults.LogNormal(rng, 1.2, 0.6))   // few hours
		j.MaxMemPerNodeGB = 1 + rng.Float64()*2
	case Throughput:
		j.Nodes = clampNodes(int(faults.LogNormal(rng, 4.5, 1.0))) // median ~90
		j.Runtime = hours(1 + faults.LogNormal(rng, 1.8, 0.7))     // long
		j.MaxMemPerNodeGB = 1.2 + rng.Float64()*2.2
	case MemoryHog:
		j.Nodes = clampNodes(int(faults.LogNormal(rng, 2.2, 0.6))) // median ~9
		j.Runtime = hours(2 + faults.LogNormal(rng, 2.0, 0.6))     // longest
		j.MaxMemPerNodeGB = 4.8 + rng.Float64()*1.1                // near the 6 GB cap
	case Debugger:
		j.Nodes = clampNodes(int(faults.LogNormal(rng, 2.5, 1.0))) // median ~12
		j.Runtime = hours(0.05 + faults.LogNormal(rng, -1.0, 0.8)) // minutes-to-an-hour
		j.MaxMemPerNodeGB = 0.5 + rng.Float64()*2
	}
	// Memory hogs hold their peak nearly the whole run; other classes
	// ramp up and down around half of peak.
	if u.Class == MemoryHog {
		j.AvgMemPerNodeGB = j.MaxMemPerNodeGB * (0.82 + rng.Float64()*0.13)
	} else {
		j.AvgMemPerNodeGB = j.MaxMemPerNodeGB * (0.5 + rng.Float64()*0.25)
	}
	j.Buggy = rng.Float64() < u.BugProbability
	return j
}

func clampNodes(n int) int {
	if n < 1 {
		return 1
	}
	if n > 16384 {
		return 16384
	}
	return n
}

func hours(h float64) time.Duration {
	if h < 0.01 {
		h = 0.01
	}
	if h > 48 {
		h = 48
	}
	return time.Duration(h * float64(time.Hour))
}

func sortJobs(jobs []Job) {
	slices.SortStableFunc(jobs, func(a, b Job) int {
		if c := a.Submit.Compare(b.Submit); c != 0 {
			return c
		}
		return int(a.User) - int(b.User)
	})
}
