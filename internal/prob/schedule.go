package prob

import (
	"container/heap"
	"time"
)

// SimJob is one measured job of a distributed run's fork DAG: its busy time,
// the decision-tree branches it visited, and the IDs of the continuation
// jobs it forked.
type SimJob struct {
	Dur      time.Duration
	Branches int64
	Children []uint64
}

// ListSchedule replays a measured job DAG on w virtual workers with an
// event-driven list scheduler. A job becomes ready when its parent finishes
// (its forks are only discovered then); ready jobs start earliest-ready
// first, FIFO among ties, each on the earliest-free worker (lowest index
// among ties). This is the schedule a w-worker pool would follow if every
// job cost its measured busy time and shipping were free — the paper's §5
// methodology for the hybrid-d timings. Children absent from jobs (skipped
// subtrees) are ignored. It returns the makespan and each worker's jobs,
// branches and busy time.
func ListSchedule(jobs map[uint64]SimJob, roots []uint64, w int) (time.Duration, []WorkerStats) {
	if w < 1 {
		w = 1
	}
	var ready readyHeap
	seq := 0
	push := func(at time.Duration, id uint64) {
		heap.Push(&ready, readyJob{at: at, seq: seq, id: id})
		seq++
	}
	for _, r := range roots {
		push(0, r)
	}
	free := make([]time.Duration, w)
	per := make([]WorkerStats, w)
	var makespan time.Duration
	for ready.Len() > 0 {
		e := heap.Pop(&ready).(readyJob)
		j, ok := jobs[e.id]
		if !ok {
			continue
		}
		wk := 0
		for i := 1; i < w; i++ {
			if free[i] < free[wk] {
				wk = i
			}
		}
		finish := max(e.at, free[wk]) + j.Dur
		free[wk] = finish
		per[wk].Jobs++
		per[wk].Branches += j.Branches
		per[wk].Busy += j.Dur
		makespan = max(makespan, finish)
		for _, c := range j.Children {
			push(finish, c)
		}
	}
	return makespan, per
}

// readyJob is a job waiting for a virtual worker; seq breaks ties in
// insertion order so the schedule is deterministic.
type readyJob struct {
	at  time.Duration
	seq int
	id  uint64
}

type readyHeap []readyJob

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(readyJob)) }
func (h *readyHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
