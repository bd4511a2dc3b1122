package prob

import (
	"sync"
	"testing"
)

// The budget-pool tests pin the pool's concurrency contract; they are
// written to be meaningful under the race detector: multiple goroutines
// hammer the same pool concurrently.

// TestBudgetPoolConservation: concurrent deposits and withdrawals must
// conserve the total budget per target exactly. Budgets are dyadic
// fractions, so float addition is exact and the totals compare with ==.
func TestBudgetPoolConservation(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
		targets = 3
	)
	pool := &budgetPool{}
	fractions := []float64{0.5, 0.25, 0.125}

	totals := make([]float64, targets)    // what each worker deposits, summed
	tallies := make([][]float64, workers) // what each worker withdrew
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]float64, targets)
			deposited := make([]float64, targets)
			for r := 0; r < rounds; r++ {
				E := make([]float64, targets)
				for i := range E {
					E[i] = fractions[(w+r+i)%len(fractions)]
					deposited[i] += E[i]
				}
				pool.deposit(E)
				W := make([]float64, targets)
				pool.withdraw(W)
				for i := range W {
					local[i] += W[i]
				}
			}
			mu.Lock()
			tallies[w] = local
			for i := range deposited {
				totals[i] += deposited[i]
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	// Whatever was not withdrawn must still sit in the pool.
	remainder := make([]float64, targets)
	pool.withdraw(remainder)
	for i := 0; i < targets; i++ {
		var withdrawn float64
		for w := 0; w < workers; w++ {
			withdrawn += tallies[w][i]
		}
		if got := withdrawn + remainder[i]; got != totals[i] {
			t.Fatalf("target %d: withdrawn %v + remainder %v != deposited %v",
				i, withdrawn, remainder[i], totals[i])
		}
	}
}

// TestBudgetPoolSkipsNonPositive: exhausted (zero or negative) budget
// entries must not pollute the pool.
func TestBudgetPoolSkipsNonPositive(t *testing.T) {
	pool := &budgetPool{}
	pool.deposit([]float64{0.5, 0, -0.25})
	got := make([]float64, 3)
	pool.withdraw(got)
	if got[0] != 0.5 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("withdraw = %v, want [0.5 0 0]", got)
	}
}

// TestBudgetPoolWithdrawBeforeDeposit: withdrawing from a never-used pool
// is a no-op, not a nil-slice panic.
func TestBudgetPoolWithdrawBeforeDeposit(t *testing.T) {
	pool := &budgetPool{}
	E := []float64{0.125, 0.25}
	pool.withdraw(E)
	if E[0] != 0.125 || E[1] != 0.25 {
		t.Fatalf("withdraw on empty pool mutated E: %v", E)
	}
}

// TestMergerDropsMergedJobs pins the coordinator's memory bound: a job's
// entry leaves the table once its stream and all its children's streams are
// merged, while the merge order still follows the fork markers.
func TestMergerDropsMergedJobs(t *testing.T) {
	book := newBoundsBook(1, 0)
	m := newMerger(book, &WireJob{ID: 0})
	add := func(mass float64) WireItem { return WireItem{Kind: ItemAdd, IsTrue: true, Mass: mass} }
	root := m.jobs[0]
	root.state = jDone
	root.res = &WireResult{Items: []WireItem{add(0.5), {Kind: ItemFork, Fork: 0}, add(0.125)}}
	root.children = []uint64{1}
	m.jobs[1] = &cjob{wj: &WireJob{ID: 1}}

	m.run() // stalls at the fork marker: job 1 has no result yet
	if len(m.jobs) != 2 {
		t.Fatalf("table holds %d jobs while job 1 is pending, want 2", len(m.jobs))
	}
	child := m.jobs[1]
	child.state = jDone
	child.res = &WireResult{Items: []WireItem{add(0.25)}}
	m.run()
	if len(m.jobs) != 0 || len(m.stack) != 0 {
		t.Fatalf("after the full merge the table holds %d jobs and the stack %d frames, want 0 and 0",
			len(m.jobs), len(m.stack))
	}
	lo, _ := book.snapshot()
	if lo[0] != 0.875 {
		t.Fatalf("merged lower bound %g, want 0.875", lo[0])
	}
}
