package topk_test

import (
	"testing"

	"topkmon/internal/eps"
	"topkmon/topk"
)

// mkSteady returns a warmed-up monitor plus the pre-generated step batches
// the steady-state alloc tests and benchmarks cycle through.
func mkSteady(tb testing.TB, extra ...topk.Option) (*topk.Monitor, [][]topk.Update) {
	tb.Helper()
	const n, k, pregen = 64, 8, 512
	trace := mkTrace(n, pregen, 13)
	batches := make([][]topk.Update, pregen)
	for t, vals := range trace {
		batches[t] = make([]topk.Update, n)
		for i, v := range vals {
			batches[t][i] = topk.Update{Node: i, Value: v}
		}
	}
	opts := append([]topk.Option{topk.WithNodes(n), topk.WithSeed(5)}, extra...)
	m, err := topk.New(k, topk.WrapEps(eps.MustNew(1, 8)), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return m, batches
}

// TestFacadeStepAllocs enforces the acceptance budget of the push API: in
// steady state, UpdateBatch (one full monitored time step), single-node
// Update (staging), TopK, Cost, and Check allocate nothing — bare and with
// the fault layer armed. This is the benchmark-tracked property asserted as
// a test so CI fails on regressions without running benchmarks.
func TestFacadeStepAllocs(t *testing.T) {
	cases := []struct {
		name string
		opts []topk.Option
	}{
		{"lockstep", nil},
		// A zero fault plan arms the injector wrapper and the per-step
		// supervisor; the whole fault layer must stay on the zero-alloc
		// budget when nothing is injected.
		{"lockstep/faults=zero", []topk.Option{topk.WithFaults(&topk.FaultPlan{})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, batches := mkSteady(t, tc.opts...)
			defer m.Close()
			i := 0
			step := func() {
				if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range 128 {
				step()
			}
			if avg := testing.AllocsPerRun(400, step); avg != 0 {
				t.Errorf("steady-state UpdateBatch allocates %.2f per step, want 0", avg)
			}

			if avg := testing.AllocsPerRun(400, func() {
				if err := m.Update(7, int64(100000+i%100)); err != nil {
					t.Fatal(err)
				}
				i++
			}); avg != 0 {
				t.Errorf("steady-state Update allocates %.2f per push, want 0", avg)
			}

			out := make([]int, 0, m.K())
			if avg := testing.AllocsPerRun(400, func() {
				out = m.TopK(out)
				if len(out) != m.K() {
					t.Fatal("short output")
				}
			}); avg != 0 {
				t.Errorf("TopK allocates %.2f per read, want 0", avg)
			}

			if avg := testing.AllocsPerRun(400, func() {
				if c := m.Cost(); c.Messages < 0 {
					t.Fatal("bogus cost")
				}
			}); avg != 0 {
				t.Errorf("Cost allocates %.2f per read, want 0", avg)
			}

			// Warm the oracle scratch once, then Check must be free too.
			if err := m.Check(); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(400, func() {
				if err := m.Check(); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("Check allocates %.2f per validation, want 0", avg)
			}
		})
	}
}

// BenchmarkFacadeUpdateBatch measures one pushed time step (n=64, k=8,
// drifting walk) through the public API; 0 allocs/op is the enforced
// budget (TestFacadeStepAllocs).
func BenchmarkFacadeUpdateBatch(b *testing.B) {
	m, batches := mkSteady(b)
	defer m.Close()
	for i := 0; i < 64; i++ {
		if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeTopK measures the zero-alloc read path.
func BenchmarkFacadeTopK(b *testing.B) {
	m, batches := mkSteady(b)
	defer m.Close()
	for i := 0; i < 64; i++ {
		if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	out := make([]int, 0, m.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = m.TopK(out)
		if len(out) != m.K() {
			b.Fatal("short output")
		}
	}
}

// BenchmarkFacadeSingleUpdate measures fine-grained per-node pushes (each
// full rotation over the nodes commits one step).
func BenchmarkFacadeSingleUpdate(b *testing.B) {
	m, batches := mkSteady(b)
	defer m.Close()
	n := m.N()
	for i := 0; i < 64; i++ {
		if err := m.UpdateBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := batches[(i/n)%len(batches)][i%n]
		if err := m.Update(u.Node, u.Value); err != nil {
			b.Fatal(err)
		}
	}
}
