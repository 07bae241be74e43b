package scheduler

import (
	"container/heap"
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
	running := &endHeap{}
	heap.Init(running)
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
		heap.Push(running, runningJob{end: rec.End, nodes: nodes})
		return true
	}

	// drainUntil completes every running job that ends at or before t,
	// then starts queued jobs that fit, in order.
	drainUntil := func(t time.Time) {
		for running.Len() > 0 && !(*running)[0].end.After(t) {
			rj := heap.Pop(running).(runningJob)
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
	for running.Len() > 0 {
		drainUntil((*running)[0].end)
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Start.Before(records[j].Start) })
	return records
}

type runningJob struct {
	end   time.Time
	nodes Placement
}

type endHeap []runningJob

func (h endHeap) Len() int            { return len(h) }
func (h endHeap) Less(i, j int) bool  { return h[i].end.Before(h[j].end) }
func (h endHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x interface{}) { *h = append(*h, x.(runningJob)) }
func (h *endHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
