// Package checkpoint turns measured failure rates into checkpointing
// decisions — the downstream use the paper opens with: "HPC workloads are
// typically fairly long running simulations that often rely on
// checkpointing mechanisms to continue making forward progress even in
// the case of failures."
//
// It provides the two classic optimal-interval approximations (Young's
// first-order rule and Daly's higher-order refinement), an exact
// trace-driven execution simulator for validating an interval against a
// concrete failure trace.
package checkpoint

import (
	"errors"
	"math"
	"sort"
	"time"
)

// YoungInterval returns Young's first-order optimum sqrt(2*C*MTBF).
func YoungInterval(mtbf, cost time.Duration) time.Duration {
	if mtbf <= 0 || cost <= 0 {
		return 0
	}
	h := math.Sqrt(2 * cost.Hours() * mtbf.Hours())
	return time.Duration(h * float64(time.Hour))
}

// DalyInterval returns Daly's higher-order optimum, which corrects
// Young's rule when the checkpoint cost is not small against the MTBF.
func DalyInterval(mtbf, cost time.Duration) time.Duration {
	if mtbf <= 0 || cost <= 0 {
		return 0
	}
	c := cost.Hours()
	m := mtbf.Hours()
	if c >= 2*m {
		// Degenerate regime: checkpointing costs more than the machine
		// survives; checkpoint back to back.
		return cost
	}
	x := math.Sqrt(2 * c * m)
	h := x * (1 + math.Sqrt(c/(2*m))/3 + c/(9*2*m))
	return time.Duration(h * float64(time.Hour))
}

// RunStats summarizes one simulated execution.
type RunStats struct {
	// Makespan is the wall-clock time to finish the work.
	Makespan time.Duration
	// Checkpoints taken, failures survived, and work lost to rollbacks.
	Checkpoints int
	Failures    int
	LostWork    time.Duration
	// Efficiency is useful work over makespan.
	Efficiency float64
}

// Simulate executes work units of useful computation with checkpoints
// every interval, each costing cost; a failure rolls the application back
// to its last completed checkpoint and adds restart before execution
// resumes. failures holds the wall-clock offsets (from run start) of the
// failures that would hit this allocation; it needs not be sorted. The
// returned statistics are exact for the given trace.
func Simulate(work, interval, cost, restart time.Duration, failures []time.Duration) (RunStats, error) {
	if work <= 0 {
		return RunStats{}, errors.New("checkpoint: non-positive work")
	}
	if interval <= 0 {
		return RunStats{}, errors.New("checkpoint: non-positive interval")
	}
	fs := append([]time.Duration(nil), failures...)
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })

	var stats RunStats
	var clock time.Duration   // wall-clock time elapsed
	var done time.Duration    // work persisted in the last checkpoint
	var segment time.Duration // work executed since the last checkpoint
	fi := 0                   // next failure index
	nextFailure := func() (time.Duration, bool) {
		if fi < len(fs) {
			return fs[fi], true
		}
		return 0, false
	}

	const maxSteps = 10_000_000 // guard against pathological traces
	for steps := 0; done < work; steps++ {
		if steps == maxSteps {
			return stats, errors.New("checkpoint: simulation did not converge")
		}
		// Work remaining until the next checkpoint boundary (or the end).
		until := interval - segment
		if rem := work - done - segment; rem < until {
			until = rem
		}
		boundary := clock + until
		if f, ok := nextFailure(); ok && f < boundary {
			// Failure strikes mid-segment: lose the segment.
			executed := f - clock
			if executed < 0 {
				executed = 0
			}
			stats.Failures++
			stats.LostWork += segment + executed
			segment = 0
			clock = f + restart
			fi++
			continue
		}
		clock = boundary
		segment += until
		if done+segment >= work {
			done = work
			break
		}
		// Take a checkpoint; a failure during the checkpoint loses the
		// segment too.
		ckptEnd := clock + cost
		if f, ok := nextFailure(); ok && f < ckptEnd {
			stats.Failures++
			stats.LostWork += segment + (f - clock)
			segment = 0
			clock = f + restart
			fi++
			continue
		}
		clock = ckptEnd
		done += segment
		segment = 0
		stats.Checkpoints++
	}
	stats.Makespan = clock
	if clock > 0 {
		stats.Efficiency = work.Hours() / clock.Hours()
	}
	return stats, nil
}

// ExpectedWaste returns the first-order expected overhead fraction of an
// interval: cost/interval + interval/(2*MTBF). Minimized at Young's
// optimum; useful for reporting.
func ExpectedWaste(interval, cost, mtbf time.Duration) float64 {
	if interval <= 0 || mtbf <= 0 {
		return math.Inf(1)
	}
	return cost.Hours()/interval.Hours() + interval.Hours()/(2*mtbf.Hours())
}
