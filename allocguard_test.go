package enframe

import (
	"context"
	"testing"

	"enframe/internal/core"
	"enframe/internal/prob"
)

// frontEndAllocBudget is the ceiling on allocations per obs-disabled fused
// front-end run (lex → parse → fused translate+ground) at the kmedoids n=24
// benchmark scale. Measured ~2.4k since the builder interns through an
// open-addressing id table into paged node storage (the map-keyed builder
// sat at ~32.5k, the legacy two-phase path at ~1.51M); the headroom absorbs
// table and memo growth, not regressions — a return to per-node intern keys
// or per-node slices blows through it immediately.
const frontEndAllocBudget = 4000

// frontEndBytesBudget is the ceiling on bytes allocated per fused front-end
// run at the same scale: ~1.3× the measured ~3.4 MB/op. Node pages, the
// intern table and the single-array finalisation are sized to the network,
// so a per-node copy or a doubling store shows up here before it shows up
// as a count.
const frontEndBytesBudget = 4_500_000

// TestFrontEndAllocGuard holds the fused front end to its allocation
// profile, in count and in bytes. Run as part of `make ci` (via
// `make alloc-guard`).
func TestFrontEndAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	spec := coreSpec(t, false)
	prepare := func() {
		if _, err := core.PrepareContext(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, prepare)
	t.Logf("fused front end: %.0f allocs/op (budget %d)", allocs, frontEndAllocBudget)
	if allocs > frontEndAllocBudget {
		t.Errorf("fused front end allocates %.0f/op, over the %d budget — the streaming builder hot path regressed",
			allocs, frontEndAllocBudget)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prepare()
		}
	})
	bytes := res.AllocedBytesPerOp()
	t.Logf("fused front end: %d B/op over %d runs (budget %d)", bytes, res.N, frontEndBytesBudget)
	if bytes > frontEndBytesBudget {
		t.Errorf("fused front end allocates %d B/op, over the %d budget — the builder's storage regressed",
			bytes, frontEndBytesBudget)
	}
}

// compileAllocBudget is the ceiling on allocations per exact compile through
// the bit-parallel flat core at the same kmedoids n=24 scale. The packed core
// allocates its planes, abstract records, aux tables, and trail once up
// front and then runs allocation-free through the ~1.4M parent-edge visits
// of the expansion; measured ~200 allocs/op. The headroom absorbs slice
// regrowth nondeterminism — any per-node or per-propagation allocation
// creeping into the hot loop blows the budget by orders of magnitude.
const compileAllocBudget = 450

// TestCompileAllocGuard holds the flat compilation core to its packed
// allocation profile. Run as part of `make ci` (via `make alloc-guard`).
func TestCompileAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	spec := coreSpec(t, false)
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := prob.Options{Strategy: prob.Exact}
	if _, err := prob.Compile(art.Net, opts); err != nil {
		t.Fatal(err) // warm the cached network.Flat layout
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := prob.Compile(art.Net, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("flat exact compile: %.0f allocs/op (budget %d)", allocs, compileAllocBudget)
	if allocs > compileAllocBudget {
		t.Errorf("flat compile allocates %.0f/op, over the %d budget — the packed core hot path regressed",
			allocs, compileAllocBudget)
	}
}
