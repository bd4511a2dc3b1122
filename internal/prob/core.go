package prob

import (
	"sync/atomic"
	"time"

	"enframe/internal/event"
	"enframe/internal/network"
)

// compCore abstracts one walker's compilation state so the Shannon-expansion
// walker, the circuit tracer and Session job replay run unchanged over both
// implementations:
//
//   - the legacy pointer-DAG state of mask.go, one 56-byte nmask per node
//     (Options.LegacyCore, kept as the differential oracle), and
//   - the packed flat core of flat.go, truth values in two uint64 bit planes
//     over the network's structure-of-arrays layout.
//
// Both cores perform the identical sequence of floating-point operations in
// the identical order, so marginals — and the Stats counters — are
// bit-identical between them; the equivalence suite in internal/difftest
// enforces this over generated programs.
type compCore interface {
	// attachRun wires the variable order and the runner's abort machinery
	// into the state. deadline/stop/timed may be zero/nil outside runners.
	attachRun(order []event.VarID, deadline time.Time, stop, timed *atomic.Bool)
	// initAll runs the initial bottom-up mask pass; targets decided by it
	// are recorded with the full unit mass.
	initAll()
	// assign pushes x ↦ v with branch mass p and propagates (Algorithm 2).
	assign(x event.VarID, v bool, p float64)
	// trailMark/undoTo bracket one branch: undoTo restores masks bit-exactly
	// to the state at the matching trailMark.
	trailMark() int
	undoTo(mark int)
	// clearTrail drops the trail without undoing (job path replay).
	clearTrail()
	// nextVar returns the next influential unassigned variable at or after
	// order position oi.
	nextVar(oi int) (int, event.VarID, bool)
	// allSettled reports the termination condition of Algorithm 1.
	allSettled() bool
	// unmaskedTargets counts targets not yet decided on the current branch;
	// the circuit tracer uses it to detect lossy cuts (a subtree skipped
	// while targets were still undecided cannot replay at other
	// probability assignments).
	unmaskedTargets() int
	// st exposes the state's work counters.
	st() *Stats
	// setRecording gates target-bound accumulation (off during job replay).
	setRecording(bool)
	// setOnAdd installs the bound-contribution observer (session executors).
	setOnAdd(func(ti int, isTrue bool, p float64))
	// snapshotFrom resets to a pristine post-init state of the same type;
	// a Session job then replays its assignment path from there.
	snapshotFrom(pristine compCore)
}

// newCompCore builds the state implementation selected by opts.
func newCompCore(net *network.Net, types []network.ValueType, opts Options, bounds *boundsBook) compCore {
	if opts.LegacyCore {
		return newState(net, types, opts, bounds)
	}
	return newFstate(net, types, opts, bounds)
}

func (s *state) attachRun(order []event.VarID, deadline time.Time, stop, timed *atomic.Bool) {
	s.order = order
	s.deadline = deadline
	s.stopFlag = stop
	s.timedFlag = timed
}

func (s *state) trailMark() int                                   { return len(s.trail) }
func (s *state) clearTrail()                                      { s.trail = s.trail[:0] }
func (s *state) st() *Stats                                       { return &s.stats }
func (s *state) unmaskedTargets() int                             { return s.nUnmasked }
func (s *state) setRecording(on bool)                             { s.recording = on }
func (s *state) setOnAdd(fn func(ti int, isTrue bool, p float64)) { s.onAdd = fn }
