package scheduler

import (
	"sort"
	"time"

	"titanre/internal/console"
	"titanre/internal/workload"
)

// Record is one scheduled job: the workload spec plus placement and
// timing. It is the unit of the job log that the per-job nvidia-smi
// snapshot framework and every correlation analysis consume.
type Record struct {
	ID    console.JobID
	Spec  workload.Job
	Start time.Time
	End   time.Time
	Nodes Placement
}

// Runtime returns the executed duration.
func (r Record) Runtime() time.Duration { return r.End.Sub(r.Start) }

// GPUCoreHours returns node-hours for the placed job.
func (r Record) GPUCoreHours() float64 {
	return float64(r.Nodes.Len()) * r.Runtime().Hours()
}

// Schedule runs the event-driven scheduler over a submission-ordered job
// stream and returns placement records ordered by start time. Jobs too
// large for the machine are dropped. The queue is FIFO with a simple
// backfill: whenever capacity frees, every queued job that now fits is
// started in arrival order.
func Schedule(jobs []workload.Job, policy PlacementPolicy) []Record {
	alloc := NewAllocator(policy)
	records := make([]Record, 0, len(jobs))
	var queue []workload.Job
	var running endHeap
	nextID := console.JobID(1)

	start := func(j workload.Job, at time.Time) bool {
		nodes, ok := alloc.Alloc(j.Nodes)
		if !ok {
			return false
		}
		rec := Record{
			ID:    nextID,
			Spec:  j,
			Start: at,
			End:   at.Add(j.Runtime),
			Nodes: nodes,
		}
		nextID++
		records = append(records, rec)
		running.push(runningJob{end: rec.End, nodes: nodes})
		return true
	}

	// drainUntil completes every running job that ends at or before t,
	// then starts queued jobs that fit, in order.
	drainUntil := func(t time.Time) {
		for len(running) > 0 && !running[0].end.After(t) {
			rj := running.pop()
			alloc.Release(rj.nodes)
			// Backfill at the moment capacity freed, filtering the
			// queue in place.
			remaining := queue[:0]
			for _, qj := range queue {
				if !start(qj, rj.end) {
					remaining = append(remaining, qj)
				}
			}
			queue = remaining
		}
	}

	for _, j := range jobs {
		if j.Nodes > alloc.Capacity() {
			continue // can never run
		}
		drainUntil(j.Submit)
		if !start(j, j.Submit) {
			queue = append(queue, j)
		}
	}
	// Drain everything still running or queued.
	for len(running) > 0 {
		drainUntil(running[0].end)
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Start.Before(records[j].Start) })
	return records
}

type runningJob struct {
	end   time.Time
	nodes Placement
}

// endHeap is a min-heap of running jobs by end time. It is
// container/heap's algorithm written out over the concrete type — the
// same sift-up and sift-down, so jobs ending at the same instant pop in
// the identical order — without boxing each job into an interface on
// push and again on pop.
type endHeap []runningJob

func (h endHeap) less(i, j int) bool { return h[i].end.Before(h[j].end) }

func (h *endHeap) push(rj runningJob) {
	*h = append(*h, rj)
	for j := len(*h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

func (h *endHeap) pop() runningJob {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && old.less(j2, j) {
			j = j2
		}
		if !old.less(j, i) {
			break
		}
		old[i], old[j] = old[j], old[i]
		i = j
	}
	rj := old[n]
	old[n] = runningJob{}
	*h = old[:n]
	return rj
}
