package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
)

// Workload inputs are pure functions of the seed: every generator below
// draws from its own math/rand source (whose seeded sequence is fixed by the
// Go 1 compatibility promise), and fingerprint hashes what was generated so
// two commits can prove they ran identical inputs.

// newRand returns a seeded source for one input stream; stream separates
// the independent streams of one workload so that changing one list's
// length never shifts another's draws.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// fingerprint is the SHA-256 of the JSON encoding of v.
func fingerprint(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: unencodable input list: " + err.Error())
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// dataSeed draws a positive data seed (the server treats 0 as "default").
func dataSeed(r *rand.Rand) int64 { return r.Int63n(math.MaxInt32) + 1 }

// shuffled returns a seeded permutation of xs (a copy).
func shuffled[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func repeat[T any](x T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// ---- offline ----

// offlineQuery is one closed-loop query: a fresh artifact per query.
type offlineQuery struct {
	Program  string `json:"program"` // kmedoids | kmeans
	Scheme   string `json:"scheme"`  // positive | mutex | conditional
	N        int    `json:"n"`
	Vars     int    `json:"vars"`
	K        int    `json:"k"`
	Iter     int    `json:"iter"`
	Strategy string `json:"strategy"` // exact | hybrid | workers2
	Seed     int64  `json:"seed"`
	Heavy    bool   `json:"heavy,omitempty"`
}

// offlineBlock is the mix unit: every block of 20 consecutive queries holds
// exactly 12 kmedoids (one of them front-end heavy) and 8 kmeans queries;
// 12 exact, 5 hybrid and 3 two-worker compilations; 6 positive, 6 mutex
// and 7 conditional schemes among the 19 regular queries; and shapes
// spread evenly over their ranges. A pool of whole blocks therefore holds
// the stated mix whatever its seed, which varies the pairing and the data.
const offlineBlock = 20

// spread returns count values evenly spaced over [lo, hi], rounded.
func spread(lo, hi, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = lo + int(math.Round(float64(i*(hi-lo))/float64(max(count-1, 1))))
	}
	return out
}

// genOffline generates n queries (rounded up to whole blocks).
func genOffline(seed int64, n int) []offlineQuery {
	r := newRand(seed, 1)
	var out []offlineQuery
	programs := append(append(repeat("kmedoids-heavy", 1), repeat("kmedoids", 11)...), repeat("kmeans", 8)...)
	strategies := append(append(repeat("exact", 12), repeat("hybrid", 5)...), repeat("workers2", 3)...)
	schemes := append(append(repeat("positive", 6), repeat("mutex", 6)...), repeat("conditional", 7)...)
	for len(out) < n {
		ps, ss, sc := shuffled(r, programs), shuffled(r, strategies), shuffled(r, schemes)
		medN, medVars := shuffled(r, spread(16, 32, 11)), shuffled(r, spread(6, 12, 11))
		medK := shuffled(r, append(repeat(2, 6), repeat(3, 5)...))
		medIter := shuffled(r, append(repeat(2, 6), repeat(3, 5)...))
		meansN, meansVars := shuffled(r, spread(16, 32, 8)), shuffled(r, spread(8, 14, 8))
		var med, means, reg int
		for i := 0; i < offlineBlock; i++ {
			q := offlineQuery{Strategy: ss[i], Seed: dataSeed(r)}
			switch ps[i] {
			case "kmedoids-heavy":
				// Front-end heavy: grounding dominates. The conditional
				// scheme would shift the cost into an exponential compile,
				// so heavy queries draw from the other two.
				q.Program, q.N, q.Vars, q.K, q.Iter, q.Heavy = "kmedoids", 48, 6, 4, 6, true
				q.Scheme = []string{"positive", "mutex"}[r.Intn(2)]
			case "kmedoids":
				q.Program, q.N, q.Vars, q.K, q.Iter = "kmedoids", medN[med], medVars[med], medK[med], medIter[med]
				med++
			case "kmeans":
				q.Program, q.N, q.Vars, q.K, q.Iter = "kmeans", meansN[means], meansVars[means], 2, 2
				means++
			}
			if !q.Heavy {
				q.Scheme = sc[reg]
				reg++
			}
			out = append(out, q)
		}
	}
	return out
}

// ---- serve ----

// serveKey is one hot artifact: program × data shape × data seed.
type serveKey struct {
	Program string `json:"program"`
	N       int    `json:"n"`
	Vars    int    `json:"vars"`
	Seed    int64  `json:"seed"`
}

// Request kinds of the serve mix.
const (
	kindExact  = "exact"
	kindHybrid = "hybrid"
	kindWhatif = "whatif"
	kindCold   = "cold"
)

var serveKinds = []string{kindExact, kindHybrid, kindWhatif, kindCold}

// serveReq is one open-loop arrival.
type serveReq struct {
	Due  float64 `json:"due_s"` // seconds from phase start
	Kind string  `json:"kind"`
	Key  int     `json:"key"`            // index into keys (popularity rank)
	Seed int64   `json:"seed,omitempty"` // fresh data seed of a cold request
}

// serveKeyCount is the number of hot keys.
const serveKeyCount = 16

// serveKeySeed fixes the hot key set. The hot keys carry most of the
// traffic, so their compile costs set the latency percentiles; drawing them
// from the run seed would make the spread between seeds measure the keys
// rather than the system. The run seed varies the traffic instead: arrival
// times, request kinds, key picks and the cold requests' fresh data.
const serveKeySeed = 1

// genServeKeys returns the 16 hot keys: the 18 program × n × vars shapes
// minus two, each with its own data seed, in popularity-rank order.
func genServeKeys() []serveKey {
	r := newRand(serveKeySeed, 2)
	var all []serveKey
	for _, p := range []string{"kmedoids", "kmeans"} {
		for _, n := range []int{10, 12, 16} {
			for _, v := range []int{6, 8, 10} {
				all = append(all, serveKey{Program: p, N: n, Vars: v})
			}
		}
	}
	keys := shuffled(r, all)[:serveKeyCount]
	for i := range keys {
		keys[i].Seed = dataSeed(r)
	}
	return keys
}

// serveBlock is the serve mix unit: every block of 100 consecutive
// arrivals holds exactly 65 exact, 20 hybrid, 10 whatif and 5 cold
// requests, and each hot key's Zipf share of them (largest remainder),
// each list shuffled. Any phase long enough for a few blocks then runs the
// stated mix and popularity rather than a sample of it.
const serveBlock = 100

// zipfCounts apportions n picks over ranks by their Zipf(s) shares.
func zipfCounts(ranks, n int, s float64) []int {
	w := make([]float64, ranks)
	var total float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	counts := make([]int, ranks)
	rem := make([]int, ranks)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		rem[k] = k
	}
	sort.SliceStable(rem, func(i, j int) bool {
		fi := float64(n)*w[rem[i]]/total - float64(counts[rem[i]])
		fj := float64(n)*w[rem[j]]/total - float64(counts[rem[j]])
		return fi > fj
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

// coldRequest is the i-th request of the fixed cold sequence: a hot key's
// shape (by Zipf popularity) with fresh data. A cold request's cost is its
// data's compile cost, so, like the hot keys, the sequence does not depend
// on the run seed; phases start at distinct offsets so that no cold
// request repeats (and hits the cache) within a run.
func coldRequest(i int) serveReq {
	r := newRand(serveKeySeed, int64(1000+i))
	k := 0
	u := r.Float64() * zipfTotal
	for k < serveKeyCount-1 && u > zipfWeight(k) {
		u -= zipfWeight(k)
		k++
	}
	return serveReq{Kind: kindCold, Key: k, Seed: dataSeed(r)}
}

// zipfWeight is the unnormalised Zipf(1.1) popularity of rank k.
func zipfWeight(k int) float64 { return 1 / math.Pow(float64(k+1), 1.1) }

var zipfTotal = func() float64 {
	var t float64
	for k := 0; k < serveKeyCount; k++ {
		t += zipfWeight(k)
	}
	return t
}()

// genServeRequests draws n requests of the serve mix (no due times); cold
// requests come from the fixed cold sequence starting at coldBase.
func genServeRequests(r *rand.Rand, n, coldBase int) []serveReq {
	kinds := append(append(append(repeat(kindExact, 65), repeat(kindHybrid, 20)...), repeat(kindWhatif, 10)...), repeat(kindCold, 5)...)
	var keys []int
	for k, c := range zipfCounts(serveKeyCount, serveBlock, 1.1) {
		keys = append(keys, repeat(k, c)...)
	}
	var out []serveReq
	for len(out) < n {
		ks, ys := shuffled(r, kinds), shuffled(r, keys)
		for i := 0; i < serveBlock && len(out) < n; i++ {
			q := serveReq{Kind: ks[i], Key: ys[i]}
			if q.Kind == kindCold {
				q = coldRequest(coldBase)
				coldBase++
			}
			out = append(out, q)
		}
	}
	return out
}

// coldStride separates the cold sequences of a run's phases.
const coldStride = 100_000

// genServePhase draws the Poisson arrivals of one phase: rate per second
// for dur seconds. stream distinguishes phases (and ramp steps).
func genServePhase(seed, stream int64, rate, dur float64) []serveReq {
	r := newRand(seed, 100+stream)
	var dues []float64
	for t := r.ExpFloat64() / rate; t < dur; t += r.ExpFloat64() / rate {
		dues = append(dues, t)
	}
	out := genServeRequests(r, len(dues), int(stream)*coldStride)
	for i := range out {
		out[i].Due = dues[i]
	}
	return out
}

// ---- stream ----

// streamOp is one abstract stream op. Windows, variables and tuples are
// chosen by fractions resolved against the session state at issue time, so
// the list is a function of the seed alone while every resolved delta is
// valid; resolution is deterministic, so the resolved log is too.
type streamOp struct {
	Kind  string       `json:"kind"` // prob | structural | advance | query
	Picks []streamPick `json:"picks,omitempty"`
	Win   float64      `json:"win,omitempty"`
	Pos   [2]float64   `json:"pos,omitempty"`
	P     float64      `json:"p,omitempty"`
}

type streamPick struct {
	Win, Var, P float64
}

// Stream op kinds.
const (
	opProb       = "prob"
	opStructural = "structural"
	opAdvance    = "advance"
	opQuery      = "query"
)

// streamBlock holds the exact mix: 10 prob pushes (50%), 3 structural
// pushes (15%), 1 advance (5%) and 6 queries (30%) per 20 ops.
const streamBlock = 20

func genStream(seed int64, n int) []streamOp {
	r := newRand(seed, 3)
	kinds := append(append(append(repeat(opProb, 10), repeat(opStructural, 3)...), opAdvance), repeat(opQuery, 6)...)
	var out []streamOp
	for len(out) < n {
		for _, k := range shuffled(r, kinds) {
			op := streamOp{Kind: k}
			switch k {
			case opProb:
				for i := 1 + r.Intn(4); i > 0; i-- {
					op.Picks = append(op.Picks, streamPick{Win: r.Float64(), Var: r.Float64(), P: 0.05 + 0.9*r.Float64()})
				}
			case opStructural:
				op.Win = r.Float64()
				op.Pos = [2]float64{100 * r.Float64(), 80 * r.Float64()}
				op.P = 0.5 + 0.3*r.Float64()
			}
			out = append(out, op)
		}
	}
	return out
}
