package main

import (
	"math"
	"reflect"
	"testing"
)

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(serveKeyCount, serveBlock, 1.1)
	var norm float64
	for k := 0; k < serveKeyCount; k++ {
		norm += math.Pow(float64(k+1), -1.1)
	}
	total := 0
	for k, n := range c {
		total += n
		if k > 0 && n > c[k-1] {
			t.Errorf("rank %d more popular than rank %d: %v", k, k-1, c)
		}
		want := serveBlock * math.Pow(float64(k+1), -1.1) / norm
		if math.Abs(float64(n)-want) >= 1 {
			t.Errorf("rank %d: %d picks, Zipf share %.2f", k, n, want)
		}
	}
	if total != serveBlock {
		t.Errorf("%d picks per block, want %d", total, serveBlock)
	}
}

func TestServeRequestsDeterministicAndExactPerBlock(t *testing.T) {
	a := genServeRequests(newRand(5, 9), 3*serveBlock, 0)
	if !reflect.DeepEqual(a, genServeRequests(newRand(5, 9), 3*serveBlock, 0)) {
		t.Fatal("same seed drew different requests")
	}
	if reflect.DeepEqual(a, genServeRequests(newRand(6, 9), 3*serveBlock, 0)) {
		t.Fatal("different seeds drew identical requests")
	}
	want := zipfCounts(serveKeyCount, serveBlock, 1.1)
	for b := 0; b < len(a); b += serveBlock {
		hot := make([]int, serveKeyCount)
		kinds := map[string]int{}
		for _, q := range a[b : b+serveBlock] {
			kinds[q.Kind]++
			if q.Kind != kindCold {
				hot[q.Key]++
			}
		}
		// Hot picks follow the block's Zipf counts; the five cold slots take
		// their keys from the fixed cold sequence instead.
		missing := 0
		for k := range hot {
			if hot[k] > want[k] {
				t.Errorf("block %d key %d: %d picks, Zipf count %d", b/serveBlock, k, hot[k], want[k])
			}
			missing += want[k] - hot[k]
		}
		if missing != 5 {
			t.Errorf("block %d: %d hot picks replaced, want 5", b/serveBlock, missing)
		}
		if !reflect.DeepEqual(kinds, map[string]int{kindExact: 65, kindHybrid: 20, kindWhatif: 10, kindCold: 5}) {
			t.Errorf("block %d kinds %v", b/serveBlock, kinds)
		}
	}
	// The cold sequence is fixed and never repeats within a run.
	if !reflect.DeepEqual(coldRequest(7), coldRequest(7)) || coldRequest(7) == coldRequest(8) {
		t.Error("cold sequence is not a fixed sequence of distinct requests")
	}
}

func TestServePhaseRate(t *testing.T) {
	reqs := genServePhase(11, 0, 200, 50)
	if n := float64(len(reqs)); math.Abs(n-10000)/10000 > 0.05 {
		t.Errorf("%d arrivals at 200/s over 50 s", len(reqs))
	}
	for i, r := range reqs {
		if i > 0 && r.Due < reqs[i-1].Due {
			t.Fatal("arrivals out of order")
		}
		if (r.Kind == kindCold) != (r.Seed != 0) {
			t.Fatalf("arrival %+v: only cold requests carry a fresh seed", r)
		}
	}
	if !reflect.DeepEqual(reqs, genServePhase(11, 0, 200, 50)) {
		t.Error("same seed drew different arrivals")
	}
}

func TestStreamMixIsExactPerBlock(t *testing.T) {
	ops := genStream(2, 5*streamBlock)
	for b := 0; b < len(ops); b += streamBlock {
		counts := map[string]int{}
		for _, op := range ops[b : b+streamBlock] {
			counts[op.Kind]++
			if op.Kind == opProb && (len(op.Picks) < 1 || len(op.Picks) > 4) {
				t.Errorf("prob push with %d deltas", len(op.Picks))
			}
		}
		want := map[string]int{opProb: 10, opStructural: 3, opAdvance: 1, opQuery: 6}
		if !reflect.DeepEqual(counts, want) {
			t.Fatalf("block %d mix %v, want %v", b/streamBlock, counts, want)
		}
	}
}
