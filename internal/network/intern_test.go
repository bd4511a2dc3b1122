package network

import (
	"math"
	"math/rand"
	"testing"

	"enframe/internal/event"
	"enframe/internal/vec"
)

// internFloats are the float payloads the intern checks draw from: +0 and
// −0, and two NaN bit patterns, must each stay distinct nodes.
var internFloats = []float64{
	0, math.Copysign(0, -1), 1, 2.5, -3,
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0x7ff8000000000002),
	math.Inf(1),
}

// internRun drives one builder through random operations, checking every
// step against a reference map keyed by appendInternKey. Operation choice
// mixes the script bytes with the seeded source, so every script reaches
// every constructor.
type internRun struct {
	tb     testing.TB
	rng    *rand.Rand
	script []byte
	step   int
	b      *Builder
	vars   []event.VarID
	ref    map[string]NodeID
	key    []byte
}

func newInternRun(tb testing.TB, seed int64, script []byte) *internRun {
	r := &internRun{tb: tb, rng: rand.New(rand.NewSource(seed)), script: script, ref: make(map[string]NodeID)}
	sp := event.NewSpace()
	for i := 0; i < 8; i++ {
		r.vars = append(r.vars, sp.Add("x", 0.5))
	}
	r.b = NewBuilder(sp, vec.Euclidean)
	// Folding evaluates payloads, and random payloads are ill-typed (a
	// vector compared with a scalar); folding has its own tests.
	r.b.DisableConstFold()
	return r
}

func (r *internRun) nextOp(n int) int {
	x := r.rng.Intn(n)
	if len(r.script) > 0 {
		x = (x + int(r.script[r.step%len(r.script)])) % n
	}
	r.step++
	return x
}

// id draws an existing node, favouring recent ones so the network deepens.
func (r *internRun) id() NodeID {
	n := r.b.count
	if r.rng.Intn(2) == 0 && n > 16 {
		return NodeID(n - 1 - r.rng.Intn(16))
	}
	return NodeID(r.rng.Intn(n))
}

func (r *internRun) ids() []NodeID {
	ks := make([]NodeID, 1+r.rng.Intn(4))
	for i := range ks {
		ks[i] = r.id()
	}
	return ks
}

func (r *internRun) float() float64 { return internFloats[r.rng.Intn(len(internFloats))] }

// value draws a ⊗ payload. Undef values carry junk payload fields, which
// the intern key ignores.
func (r *internRun) value() event.Value {
	switch r.rng.Intn(4) {
	case 0:
		return event.Value{Kind: event.Undef, S: r.float(), B: r.rng.Intn(2) == 0}
	case 1:
		return event.Num(r.float())
	case 2:
		v := make(vec.Vec, r.rng.Intn(4))
		for i := range v {
			v[i] = r.float()
		}
		return event.Vect(v)
	}
	return event.Value{Kind: event.Boolean, B: r.rng.Intn(2) == 0}
}

func (r *internRun) exp() int { return []int{-1, 0, 2, 3}[r.rng.Intn(4)] }

// rawNode draws a node for a direct intern call: any kind, payload and
// child list, so payload equality is checked apart from the constructors'
// simplifications.
func (r *internRun) rawNode() (Node, []NodeID) {
	n := Node{Kind: Kind(r.rng.Intn(numKinds))}
	var kids []NodeID
	switch n.Kind {
	case KVar:
		n.Var = r.vars[r.rng.Intn(len(r.vars))]
	case KConst:
		n.B = r.rng.Intn(2) == 0
	case KCmp:
		n.Op = event.CmpOp(r.rng.Intn(5))
		kids = []NodeID{r.id(), r.id()}
	case KCondVal:
		n.Val = r.value()
		kids = []NodeID{r.id()}
	case KPow:
		n.Exp = r.exp()
		kids = []NodeID{r.id()}
	default:
		kids = r.ids()
	}
	return n, kids
}

// apply runs one builder operation and checks the reference map.
func (r *internRun) apply() {
	b := r.b
	before := b.count
	var got NodeID
	switch r.nextOp(15) {
	case 0:
		got = b.Var(r.vars[r.rng.Intn(len(r.vars))])
	case 1:
		got = b.Bool(r.rng.Intn(2) == 0)
	case 2:
		got = b.Not(r.id())
	case 3:
		got = b.And(r.ids()...)
	case 4:
		got = b.Or(r.ids()...)
	case 5:
		got = b.Cmp(event.CmpOp(r.rng.Intn(5)), r.id(), r.id())
	case 6:
		// Scalar, Boolean and Undef payloads on one guard.
		g := r.id()
		b.CondVal(g, event.Num(r.float()))
		b.CondVal(g, event.Value{Kind: event.Boolean, B: true})
		got = b.CondVal(g, event.U)
	case 7:
		got = b.ConstNum(r.value())
	case 8:
		got = b.Guard(r.id(), r.id())
	case 9:
		got = b.Sum(r.ids()...)
	case 10:
		got = b.Prod(r.ids()...)
	case 11:
		got = b.Inv(r.id())
	case 12:
		got = b.Pow(r.id(), r.exp())
	case 13:
		got = b.Dist(r.id(), r.id())
	default:
		n, kids := r.rawNode()
		n.Kids = kids
		r.key = appendInternKey(r.key[:0], n)
		want, seen := r.ref[string(r.key)]
		got = b.intern(n, kids)
		switch {
		case seen && got != want:
			r.tb.Fatalf("step %d: hit returned node %d, want first node %d with its key", r.step, got, want)
		case !seen && (got != NodeID(before) || b.count != before+1):
			r.tb.Fatalf("step %d: miss returned node %d with %d→%d nodes, want new node %d",
				r.step, got, before, b.count, before)
		}
	}
	r.check(before, got)
}

// check records the nodes created since before, each of which must carry a
// key never seen before, and requires got to be the first node with its key.
func (r *internRun) check(before int, got NodeID) {
	b := r.b
	for id := NodeID(before); id < NodeID(b.count); id++ {
		r.key = appendInternKey(r.key[:0], *b.node(id))
		if first, ok := r.ref[string(r.key)]; ok {
			r.tb.Fatalf("step %d: node %d duplicates node %d", r.step, id, first)
		}
		r.ref[string(r.key)] = id
	}
	r.key = appendInternKey(r.key[:0], *b.node(got))
	if first := r.ref[string(r.key)]; first != got {
		r.tb.Fatalf("step %d: builder returned node %d, reference holds node %d for its key", r.step, got, first)
	}
}

// run applies operations until the builder has filled two node pages and
// doubled its table at least twice, then checks the hash-cons accounting.
func (r *internRun) run() {
	for _, x := range r.vars {
		before := r.b.count
		r.check(before, r.b.Var(x))
	}
	for r.b.count <= 2*pageSize || len(r.b.table) < 4*minTableSize {
		if r.step > 200000 {
			r.tb.Fatalf("no growth after %d steps: %d nodes", r.step, r.b.count)
		}
		r.apply()
	}
	if len(r.ref) != r.b.count {
		r.tb.Fatalf("reference holds %d keys, builder %d nodes", len(r.ref), r.b.count)
	}
	if st := r.b.Stats(); st.Created != int64(r.b.count) {
		r.tb.Fatalf("stats count %d created, builder holds %d", st.Created, r.b.count)
	}
}

// TestBuilderInternMatchesReference is the seeded property form of
// FuzzBuilderIntern.
func TestBuilderInternMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := newInternRun(t, seed, nil)
		r.run()
		st := r.b.Stats()
		t.Logf("seed %d: %d steps, %d nodes, %d hits, %d table slots", seed, r.step, st.Created, st.Hits, len(r.b.table))
	}
}

// FuzzBuilderIntern checks the builder's intern table against a reference
// map keyed by appendInternKey over random operation sequences.
func FuzzBuilderIntern(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{14, 14, 6})
	f.Add(int64(3), []byte{3, 4, 9, 10})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		newInternRun(t, seed, script).run()
	})
}
