// The root benchmarks regenerate every reproduction experiment
// (one Benchmark per table/claim, E1–E13; `go run ./internal/tools/bench`
// prints the tables) plus micro-benchmarks of the communication primitives.
//
// Run with: go test -bench=. -benchmem
package topkmon

import (
	"fmt"
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/exp"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/offline"
	"topkmon/internal/oracle"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/sim"
	"topkmon/internal/sketch"
	"topkmon/internal/stream"
	istream "topkmon/internal/stream/items"
	"topkmon/internal/wire"
	"topkmon/topk"
	"topkmon/topk/items"
)

// benchExperiment runs one registered experiment per iteration (quick mode)
// with the given worker count (0 = GOMAXPROCS).
func benchExperiment(b *testing.B, id string, parallelism int) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(exp.Options{Quick: true, Seed: uint64(i) + 1, Parallelism: parallelism})
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// The base experiment benchmarks pin Parallelism to 1 so their numbers stay
// comparable across machines; the *Parallel variants use every core
// (identical tables, lower wall clock — compare with benchstat).
func BenchmarkE1Existence(b *testing.B)        { benchExperiment(b, "E1", 1) }
func BenchmarkE2MaxFind(b *testing.B)          { benchExperiment(b, "E2", 1) }
func BenchmarkE3ExactCompetitive(b *testing.B) { benchExperiment(b, "E3", 1) }
func BenchmarkE4TopKProtocol(b *testing.B)     { benchExperiment(b, "E4", 1) }
func BenchmarkE5LowerBound(b *testing.B)       { benchExperiment(b, "E5", 1) }
func BenchmarkE6Dense(b *testing.B)            { benchExperiment(b, "E6", 1) }
func BenchmarkE7HalfEps(b *testing.B)          { benchExperiment(b, "E7", 1) }
func BenchmarkE8EpsilonSavings(b *testing.B)   { benchExperiment(b, "E8", 1) }
func BenchmarkE9PhaseAblation(b *testing.B)    { benchExperiment(b, "E9", 1) }
func BenchmarkE10Compliance(b *testing.B)      { benchExperiment(b, "E10", 1) }
func BenchmarkE11SweepAblation(b *testing.B)   { benchExperiment(b, "E11", 1) }

func BenchmarkE12Selectivity(b *testing.B)  { benchExperiment(b, "E12", 1) }
func BenchmarkE13HeavyHitters(b *testing.B) { benchExperiment(b, "E13", 1) }

func BenchmarkE1ExistenceParallel(b *testing.B)      { benchExperiment(b, "E1", 0) }
func BenchmarkE8EpsilonSavingsParallel(b *testing.B) { benchExperiment(b, "E8", 0) }
func BenchmarkE11SweepAblationParallel(b *testing.B) { benchExperiment(b, "E11", 0) }

// --- micro-benchmarks of the primitives ---

// BenchmarkSweepSilent measures the zero-violation fast path of the
// EXISTENCE sweep (the steady-state cost of a quiet time step).
func BenchmarkSweepSilent(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := lockstep.New(n, 1)
			e.Advance(make([]int64, n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(wire.Violating()); got != nil {
					b.Fatal("unexpected senders")
				}
			}
		})
	}
}

// BenchmarkSweepOneViolator measures detection latency with one violator.
func BenchmarkSweepOneViolator(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := lockstep.New(n, 1)
			vals := make([]int64, n)
			e.Advance(vals)
			e.SetFilter(3, filter.Make(5, 10))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(wire.Violating()); len(got) == 0 {
					b.Fatal("missed violator")
				}
			}
		})
	}
}

// BenchmarkViolationSweep measures the engine's violator set
// (BENCH_PR7.json records the before/after of its first version, the
// filter-interval mirror): the scheduled violation sweep of a quiet step,
// and the same sweep with a single violator, routed through the violator
// set vs. the FullScan ablation. The quiet indexed variant is the
// protocol's steady-state per-step cost and must be O(1) in n and 0
// allocs/op; the full-scan ablation checks every node once per sweep —
// the acceptance bar is ≥100× between the two at n=16384.
func BenchmarkViolationSweep(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		for _, mode := range []struct {
			name string
			full bool
		}{{"indexed", false}, {"fullscan", true}} {
			b.Run(fmt.Sprintf("quiet/%s/n=%d", mode.name, n), func(b *testing.B) {
				e := lockstep.New(n, 1)
				e.FullScan = mode.full
				e.Advance(make([]int64, n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := e.Sweep(wire.Violating()); got != nil {
						b.Fatal("unexpected senders")
					}
				}
			})
			b.Run(fmt.Sprintf("one-violator/%s/n=%d", mode.name, n), func(b *testing.B) {
				e := lockstep.New(n, 1)
				e.FullScan = mode.full
				e.Advance(make([]int64, n))
				e.SetFilter(3, filter.Make(5, 10))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := e.Sweep(wire.Violating()); len(got) == 0 {
						b.Fatal("missed violator")
					}
				}
			})
		}
	}
}

// hotRange is the value interval isolating exp.HotCold's hot bucket (the
// same workload experiment E12 pins deterministic visit counts on).
var hotRange = exp.HotInterval()

// BenchmarkSweepSelectivity measures how the value-indexed engine's scan
// cost follows the plausible-matcher count σ instead of n (BENCH_PR3.json
// records the trajectory):
//
//   - collect/n=…/σ=… — latency grows with σ at fixed n and stays
//     near-flat in n at fixed σ;
//   - sweep-hit/… — an EXISTENCE sweep whose predicate interval isolates
//     the σ hot nodes: only they flip coins;
//   - sweep-quiet-indexed/… — a matchless interval sweep: the index makes
//     all γ+1 rounds free, where the state-decided fallback
//     (sweep-quiet-fallback, = the violation sweep of a quiet step) still
//     checks all n nodes.
//
// All variants must stay at 0 allocs/op — the index and its candidate
// scratch are engine-owned and reused.
func BenchmarkSweepSelectivity(b *testing.B) {
	const nFixed = 4096
	mk := func(n, sigma int) *lockstep.Engine {
		e := lockstep.New(n, 1)
		vals := make([]int64, n)
		exp.HotCold(vals, sigma)
		e.Advance(vals)
		return e
	}
	for _, sigma := range []int{1, 16, 256, nFixed} {
		b.Run(fmt.Sprintf("collect/n=%d/sigma=%d", nFixed, sigma), func(b *testing.B) {
			e := mk(nFixed, sigma)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Collect(hotRange); len(got) != sigma {
					b.Fatalf("matched %d, want %d", len(got), sigma)
				}
			}
		})
	}
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("collect/sigma=16/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Collect(hotRange); len(got) != 16 {
					b.Fatalf("matched %d, want 16", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("collect-fallback/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Collect(wire.HasTag(wire.TagNone)); len(got) != n {
					b.Fatal("tag collect must match every node")
				}
			}
		})
	}
	for _, sigma := range []int{1, 256} {
		b.Run(fmt.Sprintf("sweep-hit/n=%d/sigma=%d", nFixed, sigma), func(b *testing.B) {
			e := mk(nFixed, sigma)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(hotRange); len(got) == 0 {
					b.Fatal("sweep missed the hot nodes")
				}
			}
		})
	}
	for _, n := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("sweep-quiet-indexed/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			empty := wire.InRange(1<<38, 1<<39) // above every value
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(empty); got != nil {
					b.Fatal("unexpected senders")
				}
			}
		})
		b.Run(fmt.Sprintf("sweep-quiet-fallback/n=%d", n), func(b *testing.B) {
			e := mk(n, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := e.Sweep(wire.Violating()); got != nil {
					b.Fatal("unexpected violators")
				}
			}
		})
	}
}

// sketchKinds enumerates the streaming summaries for the sketch hot-path
// benchmarks (sized to the E13 / topk-items operating point: 128 counters,
// Count-Min 512x4 with a 128-item keeper).
func sketchKinds() []struct {
	name string
	mk   func() sketch.Summary
} {
	return []struct {
		name string
		mk   func() sketch.Summary
	}{
		{"space-saving", func() sketch.Summary { return sketch.NewSpaceSaving(128) }},
		{"misra-gries", func() sketch.Summary { return sketch.NewMisraGries(128) }},
		{"count-min", func() sketch.Summary { return sketch.NewCountMin(512, 4, 128, 42) }},
	}
}

// sketchTrace pre-generates a zipf-skewed item sequence outside the timed
// loops so the sketch benchmarks measure only the summaries.
func sketchTrace(n int) []uint64 {
	gen := istream.NewZipf(1, 4096, n, 1.2, 99)
	evs := gen.Next(0, make([]istream.Event, 0, n))
	trace := make([]uint64, len(evs))
	for i, e := range evs {
		trace[i] = uint64(e.Item)
	}
	return trace
}

// BenchmarkSketchObserve measures the per-event ingest cost of each
// summary on a zipf(1.2) item stream — the sketch layer's hot path.
// 0 allocs/op is the enforced budget (sketch's TestObserveAllocs).
func BenchmarkSketchObserve(b *testing.B) {
	trace := sketchTrace(1 << 14)
	for _, s := range sketchKinds() {
		b.Run(s.name, func(b *testing.B) {
			sum := s.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum.Observe(trace[i&(len(trace)-1)], 1)
			}
		})
	}
}

// BenchmarkSketchHeavy measures extracting the ranked heavy list into a
// reused buffer — the per-step cost each node pays in the items layer.
func BenchmarkSketchHeavy(b *testing.B) {
	trace := sketchTrace(1 << 14)
	for _, s := range sketchKinds() {
		b.Run(s.name, func(b *testing.B) {
			sum := s.mk()
			for _, it := range trace {
				sum.Observe(it, 1)
			}
			buf := make([]sketch.Counter, 0, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = sum.Heavy(128, buf[:0])
				if len(buf) == 0 {
					b.Fatal("empty heavy list")
				}
			}
		})
	}
}

// BenchmarkItemsStep measures one committed step of the item-monitoring
// layer end to end — per-node heavy lists, candidate aggregation, and the
// inner monitor's filter protocol — at the documented operating point
// (8 nodes, 256 items, k=8, space-saving c=128), with the per-step event
// batch pre-generated and replayed outside the measurement.
func BenchmarkItemsStep(b *testing.B) {
	const nodes, universe, k = 8, 256, 8
	mon, err := items.New(items.Config{
		Nodes: nodes, Items: universe, K: k,
		Epsilon: topk.MustEpsilon(1, 8), Capacity: 128, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mon.Close()
	gen := istream.NewZipf(nodes, universe, 1000, 1.1, 13)
	const pregen = 64
	batches := make([][]istream.Event, pregen)
	for t := range batches {
		batches[t] = gen.Next(t, nil)
	}
	step := func(i int) {
		for _, e := range batches[i%pregen] {
			if err := mon.Observe(e.Node, e.Item, e.Count); err != nil {
				b.Fatal(err)
			}
		}
		if err := mon.Step(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i + 32)
	}
}

// BenchmarkFindMax measures Lemma 2.6's protocol end to end.
func BenchmarkFindMax(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := lockstep.New(n, 1)
			vals := make([]int64, n)
			r := rngx.New(9)
			for i := range vals {
				vals[i] = r.Int63n(1 << 30)
			}
			e.Advance(vals)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := protocol.FindMax(e, true); !ok {
					b.Fatal("no max")
				}
			}
		})
	}
}

// BenchmarkMonitorStep measures the steady-state per-step cost of each
// monitor on a moderately active workload (n=64, k=8). The step vectors are
// pre-generated outside the timed loop so the measurement isolates the
// engine + monitor cost — 0 allocs/op is the enforced budget.
func BenchmarkMonitorStep(b *testing.B) {
	const n, k = 64, 8
	const pregen = 1024
	e := eps.MustNew(1, 8)
	monitors := []struct {
		name string
		mk   func(cluster.Cluster) protocol.Monitor
	}{
		{"exact-mid", func(c cluster.Cluster) protocol.Monitor { return protocol.NewExactMid(c, k) }},
		{"topk", func(c cluster.Cluster) protocol.Monitor { return protocol.NewTopKProto(c, k, e) }},
		{"approx", func(c cluster.Cluster) protocol.Monitor { return protocol.NewApprox(c, k, e) }},
		{"half-eps", func(c cluster.Cluster) protocol.Monitor { return protocol.NewHalfEps(c, k, e) }},
		{"naive", func(c cluster.Cluster) protocol.Monitor { return protocol.NewNaive(c, k) }},
	}
	for _, m := range monitors {
		b.Run(m.name, func(b *testing.B) {
			gen := stream.NewWalk(n, 100000, 500, 1<<24, 13)
			steps := make([][]int64, pregen)
			for t := range steps {
				steps[t] = gen.Next(t)
			}
			eng := lockstep.New(n, 5)
			mon := m.mk(eng)
			eng.Advance(steps[0])
			mon.Start()
			eng.EndStep()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Advance(steps[(i+1)%pregen])
				mon.HandleStep()
				eng.EndStep()
			}
		})
	}
}

// BenchmarkFacadePush measures one pushed time step through the PUBLIC
// topk facade (n=64, k=8, drifting walk batched as one UpdateBatch per
// step) — the embedder-visible form of BenchmarkMonitorStep. 0 allocs/op
// is the enforced budget (topk's TestFacadeStepAllocs).
func BenchmarkFacadePush(b *testing.B) {
	const n, k, pregen = 64, 8, 1024
	gen := stream.NewWalk(n, 100000, 500, 1<<24, 13)
	batches := make([][]topk.Update, pregen)
	for t := range batches {
		vals := gen.Next(t)
		batches[t] = make([]topk.Update, n)
		for i, v := range vals {
			batches[t][i] = topk.Update{Node: i, Value: v}
		}
	}
	m, err := topk.New(k, topk.MustEpsilon(1, 8), topk.WithNodes(n), topk.WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 64; i++ {
		if err := m.UpdateBatch(batches[i%pregen]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.UpdateBatch(batches[i%pregen]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracle measures the steady-state per-step ground-truth
// computation (reused Scratch — the path sim.Run takes; 0 allocs/op).
func BenchmarkOracle(b *testing.B) {
	const n, k = 1024, 16
	vals := make([]int64, n)
	r := rngx.New(3)
	for i := range vals {
		vals[i] = r.Int63n(1 << 30)
	}
	e := eps.MustNew(1, 8)
	var sc oracle.Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := oracle.ComputeInto(&sc, vals, k, e)
		if tr.VK == 0 {
			b.Fatal("bogus truth")
		}
	}
}

// BenchmarkOracleFresh tracks the allocating compatibility wrapper.
func BenchmarkOracleFresh(b *testing.B) {
	const n, k = 1024, 16
	vals := make([]int64, n)
	r := rngx.New(3)
	for i := range vals {
		vals[i] = r.Int63n(1 << 30)
	}
	e := eps.MustNew(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := oracle.Compute(vals, k, e)
		if tr.VK == 0 {
			b.Fatal("bogus truth")
		}
	}
}

// BenchmarkOfflineSolve measures the offline optimum segmentation.
func BenchmarkOfflineSolve(b *testing.B) {
	const n, k, T = 64, 8, 500
	gen := stream.NewWalk(n, 100000, 800, 1<<24, 21)
	matrix := make([][]int64, T)
	for t := range matrix {
		matrix[t] = gen.Next(t)
	}
	e := eps.MustNew(1, 8)
	inst, err := offline.NewInstance(matrix, k, e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := inst.Solve()
		if len(res.Segments) == 0 {
			b.Fatal("no segments")
		}
	}
}

// BenchmarkEndToEndRun measures a complete simulated run (400 steps, n=32)
// through the sim harness including validation.
func BenchmarkEndToEndRun(b *testing.B) {
	const n, k, steps = 32, 4, 400
	e := eps.MustNew(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			K: k, Eps: e, Steps: steps, Seed: uint64(i),
			Gen: stream.NewLoads(n, 1000, 40, 0.01, 4000, 1<<20, uint64(i)+7),
			NewMonitor: func(c cluster.Cluster) protocol.Monitor {
				return protocol.NewApprox(c, k, e)
			},
			Validate: sim.ValidateEps,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
