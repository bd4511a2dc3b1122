package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"enframe/internal/core"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// TestServedRunMatchesDirectRun posts seeded generator programs (data kind
// "gen") to a live server and asserts the marginals and work counters in
// the HTTP response are byte-identical to a direct in-process core.Run over
// the very spec the server derives from the same seed. This pins the
// serving layer — request decoding, artifact caching, circuit replay,
// admission, response encoding — as a pure transport around the pipeline:
// it must not perturb a single bit of the computed probabilities. Each seed
// is served cold, warm, warm again after a /v1/whatif on the same key, and
// under strategy "circuit".
func TestServedRunMatchesDirectRun(t *testing.T) {
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	client := &http.Client{}
	post := func(seed int64, route string, req any) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post("http://"+srv.Addr()+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("seed %d: POST %s: %v", seed, route, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
		req := server.RunRequest{
			Data:     server.DataSpec{Kind: "gen", Seed: seed},
			Strategy: "exact",
		}

		// Direct path: the exact spec the server would build, compiled with
		// the server's default options (sequential exact, fanout order).
		spec, _, err := server.BuildSpec(req)
		if err != nil {
			t.Fatalf("seed %d: BuildSpec: %v", seed, err)
		}
		spec.Compile = prob.Options{Strategy: prob.Exact, Workers: 1, JobDepth: 3, Heuristic: prob.FanoutOrder}
		direct, err := core.Run(spec)
		if err != nil {
			t.Fatalf("seed %d: direct run: %v", seed, err)
		}
		want := make([]server.RunTarget, 0, len(direct.Result.Targets))
		for _, tb := range direct.Result.Targets {
			want = append(want, server.RunTarget{
				Name: tb.Name, Lower: tb.Lower, Upper: tb.Upper, Estimate: tb.Estimate(),
			})
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		st := direct.Result.Stats
		wantStats, err := json.Marshal(server.RunStats{
			Branches: st.Branches, Assignments: st.Assignments, MaskUpdates: st.MaskUpdates,
			BudgetPrunes: st.BudgetPrunes, MaxDepth: st.MaxDepth, Jobs: st.Jobs,
		})
		if err != nil {
			t.Fatal(err)
		}

		check := func(label, wantCache string, req server.RunRequest) {
			t.Helper()
			status, raw := post(seed, "/v1/run", req)
			if status != http.StatusOK {
				t.Fatalf("seed %d (%s): status %d: %s", seed, label, status, raw)
			}
			var fields struct {
				Cache   string          `json:"cache"`
				Targets json.RawMessage `json:"targets"`
				Stats   json.RawMessage `json:"stats"`
			}
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatalf("seed %d (%s): response JSON: %v\n%s", seed, label, err, raw)
			}
			if fields.Cache != wantCache {
				t.Errorf("seed %d (%s): cache = %q, want %q", seed, label, fields.Cache, wantCache)
			}
			if got := bytes.TrimSpace(fields.Targets); !bytes.Equal(got, wantJSON) {
				t.Errorf("seed %d (%s): served marginals differ from direct run:\nserved: %s\ndirect: %s",
					seed, label, got, wantJSON)
			}
			if got := bytes.TrimSpace(fields.Stats); !bytes.Equal(got, wantStats) {
				t.Errorf("seed %d (%s): served stats differ from direct run:\nserved: %s\ndirect: %s",
					seed, label, got, wantStats)
			}
		}

		// Served path: the cold (miss) request traces the circuit, the warm
		// (hit) one replays it, so both are held to the same bit-exactness.
		check("cold", "miss", req)
		check("warm", "hit", req)

		// A what-if sweep on the same key looks up the same memoized
		// circuit; the exact run after it must still match. A pruned trace
		// is an incomplete circuit, which what-if refuses with 422.
		status, raw := post(seed, "/v1/whatif", server.WhatifRequest{
			Data: req.Data, Grid: []float64{0, 0.5, 1},
		})
		if status != http.StatusOK && status != http.StatusUnprocessableEntity {
			t.Fatalf("seed %d: whatif status %d: %s", seed, status, raw)
		}
		check("after whatif", "hit", req)

		circ := req
		circ.Strategy = "circuit"
		check("circuit strategy", "hit", circ)
	}
}
