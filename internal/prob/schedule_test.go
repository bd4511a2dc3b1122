package prob

import (
	"testing"
	"time"
)

// fanOut builds a parent job 0 with k children of equal duration.
func fanOut(parent, child time.Duration, k int) map[uint64]SimJob {
	jobs := map[uint64]SimJob{}
	var kids []uint64
	for i := 1; i <= k; i++ {
		jobs[uint64(i)] = SimJob{Dur: child, Branches: 1}
		kids = append(kids, uint64(i))
	}
	jobs[0] = SimJob{Dur: parent, Branches: 1, Children: kids}
	return jobs
}

// checkTotals asserts the per-worker split covers every job exactly once.
func checkTotals(t *testing.T, per []WorkerStats, jobs map[uint64]SimJob) {
	t.Helper()
	var n, br int64
	var busy, want time.Duration
	for _, ws := range per {
		n += ws.Jobs
		br += ws.Branches
		busy += ws.Busy
	}
	for _, j := range jobs {
		want += j.Dur
	}
	if n != int64(len(jobs)) || br != int64(len(jobs)) || busy != want {
		t.Fatalf("per-worker totals jobs=%d branches=%d busy=%v, want %d, %d, %v",
			n, br, busy, len(jobs), len(jobs), want)
	}
}

func TestListScheduleOneWorkerIsSum(t *testing.T) {
	jobs := map[uint64]SimJob{
		0: {Dur: 3, Branches: 1, Children: []uint64{1, 2}},
		1: {Dur: 5, Branches: 1, Children: []uint64{3}},
		2: {Dur: 7, Branches: 1},
		3: {Dur: 11, Branches: 1},
	}
	got, per := ListSchedule(jobs, []uint64{0}, 1)
	if got != 26 {
		t.Fatalf("makespan on 1 worker = %v, want the duration sum 26", got)
	}
	checkTotals(t, per, jobs)
}

func TestListScheduleChainIsSum(t *testing.T) {
	jobs := map[uint64]SimJob{}
	var sum time.Duration
	for i := uint64(0); i < 6; i++ {
		j := SimJob{Dur: time.Duration(i + 1), Branches: 1}
		if i < 5 {
			j.Children = []uint64{i + 1}
		}
		jobs[i] = j
		sum += j.Dur
	}
	for _, w := range []int{1, 2, 3, 8} {
		got, per := ListSchedule(jobs, []uint64{0}, w)
		if got != sum {
			t.Fatalf("chain makespan on %d workers = %v, want %v", w, got, sum)
		}
		if len(per) != w {
			t.Fatalf("%d per-worker entries, want %d", len(per), w)
		}
		checkTotals(t, per, jobs)
	}
}

func TestListScheduleFanOut(t *testing.T) {
	const parent, child = 4, 3
	for _, k := range []int{1, 4, 5, 9} {
		for _, w := range []int{1, 2, 4} {
			jobs := fanOut(parent, child, k)
			got, per := ListSchedule(jobs, []uint64{0}, w)
			want := time.Duration(parent + (k+w-1)/w*child)
			if got != want {
				t.Fatalf("k=%d w=%d: makespan %v, want parent + ⌈k/w⌉·child = %v", k, w, got, want)
			}
			checkTotals(t, per, jobs)
		}
	}
}

// TestListScheduleIgnoresSkipped: a child the coordinator skipped never
// completes and has no entry; it must not occupy a worker.
func TestListScheduleIgnoresSkipped(t *testing.T) {
	jobs := map[uint64]SimJob{0: {Dur: 2, Branches: 1, Children: []uint64{1, 2}}, 1: {Dur: 3, Branches: 1}}
	got, per := ListSchedule(jobs, []uint64{0}, 2)
	if got != 5 {
		t.Fatalf("makespan %v, want 5", got)
	}
	checkTotals(t, per, jobs)
}
