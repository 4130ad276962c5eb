// Package topkmon is a complete Go implementation of "On Competitive
// Algorithms for Approximations of Top-k-Position Monitoring of Distributed
// Streams" (Mäcker, Malatyali, Meyer auf der Heide, 2016).
//
// n distributed nodes each observe a private integer stream; a server must
// continuously know an ε-approximate set of the k nodes holding the largest
// values while spending as few messages as possible. The implementation
// covers every protocol the paper defines — the EXISTENCE sweep (Lemma 3.1),
// maximum computation (Lemma 2.6), the exact monitor (Corollary 3.3),
// TOP-K-PROTOCOL with its four phases (Section 4), DENSEPROTOCOL and
// SUBPROTOCOL (Section 5.2), the Theorem 5.8 controller, and the
// Corollary 5.9 half-error monitor — plus the offline optimal adversary the
// competitive analyses compare against, the Theorem 5.1 lower-bound
// adversary, and a benchmark harness (E1–E13) that reproduces the bound
// shape of every theorem.
//
// Layout:
//
//	topk                the PUBLIC embeddable API: push-based Monitor facade
//	                    over the engine — the single supported entry point
//	topk/items          PUBLIC item-monitoring layer: per-node streaming
//	                    summaries feed the monitor so it tracks top-k ITEMS
//	                    (heavy hitters) across nodes — consumes only topk
//	                    and internal/sketch
//	internal/sketch     streaming summaries (Space-Saving, Misra-Gries,
//	                    Count-Min) behind one Summary interface; stdlib-only
//	                    leaf, allocation-free Observe, Reset(seed) replay
//	internal/protocol   the paper's algorithms (the core contribution)
//	internal/cluster    the engine interface protocols, the fault layer
//	                    and the harnesses are written against
//	internal/lockstep   the deterministic engine: node state held once in
//	                    per-node slices, the paper's synchronous rounds as
//	                    loops
//	internal/vindex     value-bucket index of the engine
//	internal/idset      the node-id set (bitset, id-ordered iteration) the
//	                    engine's violator set and the protocols' V/S sets
//	                    share; stdlib-only leaf
//	internal/offline    the offline optimum OPT (greedy segmentation)
//	internal/oracle     ground truth + output validation
//	internal/stream     workloads and adaptive adversaries;
//	                    stream/items: item-granularity traces (zipfian,
//	                    bursty, adversarial churn) + the recall@k evaluator
//	internal/sim        run harness (drives runs through topk);
//	                    internal/exp: experiments E1–E13
//	internal/serve      multi-tenant HTTP frontend (tenant pool, handlers,
//	                    SSE bridge, durable commit path) — consumes only the
//	                    public topk facade and internal/wal
//	internal/wal        per-tenant write-ahead batch log (CRC-framed records,
//	                    torn-tail tolerant decode, snapshot sidecars) behind
//	                    topkd -data-dir — consumes only topk
//	internal/tools      internal CLIs: tools/bench (experiment tables),
//	                    tools/tracegen (trace generation / offline pricing),
//	                    tools/loadgen (closed-loop load driver for topkd)
//	cmd/topkmon         live monitoring CLI — imports only topk
//	cmd/topkd           multi-tenant HTTP ingest daemon over internal/serve
//	examples/           six runnable scenarios — import only topk (and
//	                    topk/items for the heavyhitters demo)
//
// Applications embed the topk package; cmd/ and examples/ are its reference
// consumers, and CI (plus the topk boundary tests) enforces that neither
// imports any internal/... package — with one sanctioned exception:
// cmd/topkd imports internal/serve, which in turn may import only
// internal/wal (its durability layer), and internal/wal only topk — so the
// served path inherits every facade guarantee (TestServeEquivalence proves
// it byte-identical to direct embedding, and TestRecoveryEquivalence that
// a crash-recovered tenant is byte-identical to an uninterrupted one).
//
// # Performance
//
// The simulation hot path is allocation-free in steady state, enforced by
// the benchmarks and tests (BenchmarkMonitorStep/*, BenchmarkOracle, and
// the primitive micro-benchmarks all report 0 allocs/op):
//
//   - The oracle exposes ComputeInto with a reusable Scratch (persistent
//     order/neighborhood/validation buffers and a packed-key index sort);
//     Compute remains as an allocating convenience wrapper. sim.Run,
//     offline.SigmaMax, and cmd/topkmon hold one Scratch per run.
//   - The engine reuses its sweep buffer and double-buffers Collect
//     results; see the ownership contract on cluster.Cluster. Inspector
//     has ValuesInto/FiltersInto for per-step snapshots.
//   - The engine routes Sweep/Collect through a value-bucket index
//     (internal/vindex, maintained incrementally on Advance): only the
//     nodes plausibly matching the predicate's wire.Pred.Bounds interval
//     are visited, so scan cost tracks the matcher count σ rather than n
//     (BenchmarkSweepSelectivity, experiment E12, BENCH_PR3.json), with a
//     full-scan fallback for tag predicates; violation sweeps visit only
//     the engine's violator set. Routing is observably invisible —
//     byte-identical reports, counters, and coin flips
//     (TestIndexedScanMatchesFullScan).
//   - Protocols reuse broadcast FilterRules (the engine applies rules
//     before returning) and their set/output scratch buffers.
//   - offline.Solve reuses envelope and solver buffers and materialises a
//     witness only when a segment closes.
//   - The public topk facade adds nothing on top: Update/UpdateBatch (a
//     full pushed time step), TopK, Cost, and Check are 0 allocs/op in
//     steady state (TestFacadeStepAllocs; tracked by BenchmarkFacadePush
//     in the root suite and topk's own benchmarks), and a facade-driven
//     run is byte-identical to driving the engine directly
//     (TestFacadeEquivalence).
//
// The engine additionally supports Reset(seed): a rewind to the exact
// state a fresh construction with that seed would produce (byte-identical
// traces, asserted by the Reset property tests). The experiment harness
// reuses one engine per worker across all trials of a table cell, and
// cmd/topkmon -repeat reuses one monitor across whole sessions.
//
// Benchmarks: `go test -bench=. -benchmem` at the repo root, or
// `make bench` for machine-readable JSON (BENCH_*.json records the
// trajectory across PRs: BENCH_PR1.json is the lockstep/oracle baseline,
// BENCH_PR2.json the batching + engine-reuse deltas of a since-removed
// concurrent engine, BENCH_PR3.json the value-index σ-scaling deltas,
// BENCH_PR10.json the sketch/item-layer costs via `make bench-sketch`; see
// BENCH.md for how to read them).
//
// The experiment harness fans independent trials and sweep points across
// exp.Options.Parallelism goroutines (internal/tools/bench flag -parallel;
// every BENCH_*.json run is stamped with a bench-env line recording
// GOMAXPROCS and NumCPU). Every unit
// of work derives its seed from its own index — never from execution
// order — so tables are byte-identical for every worker count, asserted by
// TestParallelRunsAreDeterministic.
//
// See ARCHITECTURE.md for the paper-section → package map and the engine
// dataflow, and DESIGN.md for the documented interpretations of
// underspecified paper details. `go run ./internal/tools/bench` prints
// every experiment table (paper claim vs. measured). This file's package
// exists to carry the module-level documentation and the root benchmark
// suite (bench_test.go), which regenerates every experiment.
package topkmon
