package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler records the highest live heap (bytes marked live by the last
// completed GC cycle) seen during the timed phase.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
}

// stop ends sampling, takes a last sample, and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// runtimeReading is the allocation and GC state at one instant.
type runtimeReading struct {
	totalAlloc uint64
	numGC      uint32
}

func readRuntime() runtimeReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeReading{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// runtimeLayer records the runtime row of the per-layer table.
func (r *report) runtimeLayer(before, after runtimeReading, ops int) {
	r.layer["runtime.alloc_mb_per_op"] = safeDiv(float64(after.totalAlloc-before.totalAlloc)/(1<<20), float64(ops))
	r.layer["runtime.gc_cycles"] = float64(after.numGC - before.numGC)
}

// counts are exact work counts summed over a run's fixed count window (the
// first count_ops ops of the generated list), so they repeat exactly across
// runs of one seed.
type counts map[string]int64

func newCounts() counts { return counts{} }

func (c counts) add(name string, v int64) { c[name] += v }

// ledger asserts that this run's counts equal those of every earlier run of
// the same workload, seed and inputs recorded in the ledger file, and
// records them for the next run.
func (r *report) ledger(path string, seed int64) error {
	if len(r.counts) == 0 {
		return nil
	}
	book := map[string]counts{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &book); err != nil {
			return fmt.Errorf("count ledger %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	key := fmt.Sprintf("%s/%d/%s", r.workload, seed, r.fingerprint)
	if prev, ok := book[key]; ok {
		for name, v := range r.counts {
			if pv, ok := prev[name]; ok && pv != v {
				return fmt.Errorf("count %s = %d, but an earlier run of the same inputs counted %d", name, v, pv)
			}
		}
	}
	book[key] = r.counts
	out, err := json.MarshalIndent(book, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
