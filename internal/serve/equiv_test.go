package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"topkmon/topk"
)

// makeTrace builds a deterministic random-walk trace: steps full batches
// over n nodes, identical for every caller with equal parameters.
func makeTrace(n, steps int, seed uint64) [][]topk.Update {
	rng := rand.New(rand.NewSource(int64(seed) * 7919))
	walk := make([]int64, n)
	for i := range walk {
		walk[i] = 5000 + rng.Int63n(10001)
	}
	out := make([][]topk.Update, steps)
	for t := range out {
		batch := make([]topk.Update, n)
		for i := range walk {
			if t > 0 {
				walk[i] += rng.Int63n(401) - 200
				if walk[i] < 0 {
					walk[i] = 0
				}
			}
			batch[i] = topk.Update{Node: i, Value: walk[i]}
		}
		out[t] = batch
	}
	return out
}

// encodeBatch renders a batch in the update route's wire shape.
func encodeBatch(t *testing.T, batch []topk.Update) string {
	t.Helper()
	type upd struct {
		Node  int   `json:"node"`
		Value int64 `json:"value"`
	}
	w := make([]upd, len(batch))
	for i, u := range batch {
		w[i] = upd{Node: u.Node, Value: u.Value}
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// costSnapshot builds the /cost wire response directly from a facade
// monitor — the reference the HTTP-scraped snapshot must match byte for
// byte.
func costSnapshot(m *topk.Monitor) costResponse {
	c := m.Cost()
	chk := m.Check()
	h := m.Health()
	return costResponse{
		Algorithm:        m.AlgorithmName(),
		Steps:            c.Steps,
		Epochs:           m.Epochs(),
		Messages:         c.Messages,
		NodeToServer:     c.NodeToServer,
		Unicasts:         c.Unicasts,
		Broadcasts:       c.Broadcasts,
		MaxRoundsPerStep: c.MaxRoundsPerStep,
		MaxMessageBits:   c.MaxMessageBits,
		IndexFallbacks:   c.IndexFallbacks,
		DroppedMsgs:      c.DroppedMsgs,
		DupMsgs:          c.DupMsgs,
		Retries:          c.Retries,
		Resyncs:          c.Resyncs,
		StaleSteps:       c.StaleSteps,
		Check:            checkString(chk),
		Health:           healthOf(h),
		SilentInvalid:    chk != nil && h.State == topk.Fresh,
	}
}

// TestServeEquivalence is the frontend's core guarantee: a trace ingested
// over the HTTP handlers is byte-identical — outputs, the full Cost
// counter snapshot, and epochs — to the same trace pushed directly into a
// topk.Monitor. The server path is pure transport; it inherits the
// facade's equivalence guarantee instead of weakening it. Covered bare,
// with the fault layer armed, and for a tenant created with the removed
// "engine":"live" and "shards" keys, which lockstep serves unchanged.
func TestServeEquivalence(t *testing.T) {
	const (
		n     = 48
		k     = 4
		steps = 220
		seed  = 11
	)
	cases := []struct {
		name   string
		body   string // PUT body when it is not cfg's encoding
		cfg    Config
		faults *topk.FaultPlan
	}{
		{
			name: "lockstep",
			cfg:  Config{Nodes: n, K: k, Eps: "1/8", Monitor: "approx", Seed: seed},
		},
		{
			name: "lockstep-faulty",
			cfg: Config{Nodes: n, K: k, Eps: "1/8", Monitor: "approx", Seed: seed,
				Faults: &FaultConfig{Drop: 0.05, Dup: 0.02, Delay: 0.05,
					Crashes: []CrashConfig{{Node: 3, From: 40, Until: 90}}}},
			faults: &topk.FaultPlan{Drop: 0.05, Dup: 0.02, Delay: 0.05, Crashes: []topk.Crash{{Node: 3, From: 40, Until: 90}}},
		},
		{
			name: "live",
			body: `{"nodes":48,"k":4,"eps":"1/8","engine":"live","shards":3,"monitor":"approx","seed":11}`,
			cfg:  Config{Nodes: n, K: k, Eps: "1/8", Monitor: "approx", Seed: seed},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The direct path: the embeddable facade, driven in-process.
			e := topk.MustEpsilon(1, 8)
			direct, err := topk.New(k, e, topk.WithNodes(n), topk.WithSeed(seed),
				topk.WithMonitor(topk.Approx), topk.WithFaults(tc.faults))
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()

			// The HTTP path: same config through the tenant-create route.
			s := newTestServer(t, Options{})
			body := tc.body
			if body == "" {
				cfgBody, err := json.Marshal(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				body = string(cfgBody)
			}
			wantStatus(t, do(t, s, "PUT", "/v1/eq", body), 201)

			trace := makeTrace(n, steps, seed)
			topBuf := make([]int, 0, k)
			for step, batch := range trace {
				rec := do(t, s, "POST", "/v1/eq/update", encodeBatch(t, batch))
				wantStatus(t, rec, 200)
				if err := direct.UpdateBatch(batch); err != nil {
					t.Fatal(err)
				}

				// Outputs must match after EVERY step.
				rec = do(t, s, "GET", "/v1/eq/topk", "")
				wantStatus(t, rec, 200)
				var tr topkResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
					t.Fatal(err)
				}
				topBuf = direct.TopK(topBuf)
				if fmt.Sprint(tr.TopK) != fmt.Sprint(topBuf) || tr.Step != direct.Steps() {
					t.Fatalf("step %d: served topk %v (step %d) != direct %v (step %d)",
						step, tr.TopK, tr.Step, topBuf, direct.Steps())
				}

				// Full introspection snapshots must be byte-identical at
				// checkpoints and at the end.
				if (step+1)%55 == 0 || step == steps-1 {
					rec = do(t, s, "GET", "/v1/eq/cost", "")
					wantStatus(t, rec, 200)
					want, err := json.Marshal(costSnapshot(direct))
					if err != nil {
						t.Fatal(err)
					}
					got := bytes.TrimSpace(rec.Body.Bytes())
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d: cost snapshot diverged\nhttp:   %s\ndirect: %s",
							step, got, want)
					}
				}
			}

			// Non-vacuity: the trace exercised the protocol.
			if c := direct.Cost(); c.Messages == 0 || direct.Epochs() == 0 {
				t.Fatalf("vacuous trace: %+v", c)
			}
		})
	}
}

// TestServeResetEquivalence: a served tenant Reset over HTTP replays the
// trace byte-identically to its first run — the facade's Reset contract
// survives the transport.
func TestServeResetEquivalence(t *testing.T) {
	const n, k, steps = 24, 3, 120
	s := newTestServer(t, Options{Defaults: Config{Nodes: n, K: k, Seed: 5}, Lazy: true})
	trace := makeTrace(n, steps, 5)

	run := func() (last topkResponse, cost costResponse) {
		for _, batch := range trace {
			wantStatus(t, do(t, s, "POST", "/v1/r/update", encodeBatch(t, batch)), 200)
		}
		rec := do(t, s, "GET", "/v1/r/topk", "")
		wantStatus(t, rec, 200)
		json.Unmarshal(rec.Body.Bytes(), &last)
		rec = do(t, s, "GET", "/v1/r/cost", "")
		wantStatus(t, rec, 200)
		json.Unmarshal(rec.Body.Bytes(), &cost)
		return last, cost
	}

	top1, cost1 := run()
	// Reset with the tenant's construction seed (the default body).
	wantStatus(t, do(t, s, "POST", "/v1/r/reset", ""), 200)
	top2, cost2 := run()

	if fmt.Sprint(top1) != fmt.Sprint(top2) {
		t.Fatalf("topk after reset replay: %+v != %+v", top2, top1)
	}
	if cost1 != cost2 {
		t.Fatalf("cost after reset replay:\n%+v\n!=\n%+v", cost2, cost1)
	}
}
