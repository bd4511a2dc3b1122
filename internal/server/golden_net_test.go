package server

import (
	"context"
	"fmt"
	"testing"

	"enframe/internal/core"
	"enframe/internal/lang"
	"enframe/internal/network"
)

// mclCoSource is the Markov clustering program with a Boolean read-out, as
// the builtin has none: Co[i] compares the uncertain distance between
// objects 0 and i with row 0 of the clustered matrix. The served matrix is
// certain, so its expansion and inflation fold to constants; those rows pin
// the intern traffic of that folding through the lookup and hit counts.
const mclCoSource = lang.MCLSource + `Co = [None] * n
for i in range(0,n):
    Co[i] = dist(O[0],O[i]) <= M[0][i]
`

// goldenNets pins the grounded network of each spec: its structural
// fingerprint, live node count and hash-cons lookups/hits. The values were
// generated by the map-keyed intern builder that preceded the
// open-addressing table, so a builder change that hands out different ids,
// creates nodes in another order or consults the table a different number
// of times shows up here. Stream dirty-subtree detection (network.Fingerprint
// over re-grounded segments) and the benchmark's count ledger both depend on
// this id-for-id identity.
var goldenNets = []struct {
	program, scheme string
	n               int
	fingerprint     uint64
	nodes           int
	lookups, hits   int64
}{
	{"kmedoids", "positive", 6, 0x73a242a0b0b7c758, 533, 1386, 749},
	{"kmedoids", "positive", 12, 0x21eba885d38789bb, 1715, 4489, 2574},
	{"kmedoids", "mutex", 6, 0xc6621a784a54b6ec, 530, 1382, 748},
	{"kmedoids", "mutex", 12, 0x421ff723770d0b77, 1715, 4488, 2573},
	{"kmedoids", "conditional", 6, 0x7b78afeb500d9b38, 533, 1385, 748},
	{"kmedoids", "conditional", 12, 0x4be468615edb4663, 1721, 4493, 2572},
	{"kmeans", "positive", 6, 0xcfce51806c69c9b2, 165, 470, 221},
	{"kmeans", "positive", 12, 0x1f740372a78262bc, 315, 909, 438},
	{"kmeans", "mutex", 6, 0x5471bb1df1d39157, 162, 466, 220},
	{"kmeans", "mutex", 12, 0xae44a2d6ef6b398, 315, 908, 437},
	{"kmeans", "conditional", 6, 0x3a121ae51593938e, 165, 469, 220},
	{"kmeans", "conditional", 12, 0xdaa95071d384ba36, 321, 913, 436},
	{"mcl", "positive", 6, 0xde3378ffb0cc293e, 32, 3344, 2814},
	{"mcl", "positive", 12, 0xc6f2cef60cb1928f, 56, 23667, 20386},
	{"mcl", "mutex", 6, 0x6f8d25d9e34f08c3, 29, 3340, 2813},
	{"mcl", "mutex", 12, 0xf90e22bb52065cff, 56, 23666, 20385},
	{"mcl", "conditional", 6, 0x1f3b170c937e825a, 32, 3343, 2813},
	{"mcl", "conditional", 12, 0xfa49cd05d966a5e, 62, 23671, 20384},
}

// TestGoldenNetworkIdentity grounds every spec of goldenNets and requires
// the pinned fingerprint, size and hash-cons counts.
func TestGoldenNetworkIdentity(t *testing.T) {
	for _, g := range goldenNets {
		t.Run(fmt.Sprintf("%s/%s/n=%d", g.program, g.scheme, g.n), func(t *testing.T) {
			req := RunRequest{
				Program: g.program,
				Data:    DataSpec{N: g.n, Vars: 6, Scheme: g.scheme},
				Params:  ParamSpec{K: 2, Iter: 2},
			}
			switch g.program {
			case "kmeans":
				req.Targets = []string{"InCl["}
			case "mcl":
				req.Program, req.Source = "", mclCoSource
				req.Targets = []string{"Co["}
			}
			spec, _, err := BuildSpec(req)
			if err != nil {
				t.Fatal(err)
			}
			art, err := core.PrepareContext(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			fp := network.Fingerprint(art.Net)
			nodes := art.Net.NumNodes()
			if fp != g.fingerprint || nodes != g.nodes ||
				art.Ground.Lookups != g.lookups || art.Ground.Hits != g.hits {
				t.Errorf("grounded network drifted: got {%#x, %d, %d, %d}, want {%#x, %d, %d, %d}",
					fp, nodes, art.Ground.Lookups, art.Ground.Hits,
					g.fingerprint, g.nodes, g.lookups, g.hits)
			}
		})
	}
}
