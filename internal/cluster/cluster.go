// Package cluster defines the engine-neutral server-side interface through
// which all monitoring protocols talk to the distributed nodes.
//
// The deterministic sequential engine (internal/lockstep) implements it.
// The interface is the seam every decorator and harness plugs into: the
// fault injector (internal/faults) wraps an Engine, the experiment harness
// (internal/sim) accepts a pre-built one, and timing decorators wrap one to
// attribute cost per call. Protocol code is written against this interface
// only, never against the engine type.
//
// Every method that moves information between server and nodes has a unit
// communication cost per message, matching the model of Section 2.
//
// # Buffer ownership
//
// Engines run allocation-free in steady state by reusing internal buffers;
// the slices they hand out therefore have documented lifetimes rather than
// being fresh copies:
//
//   - Collect results survive exactly one further Collect (engines double-
//     buffer them, because DENSEPROTOCOL holds one result across a second
//     Collect). Protocols needing a longer lifetime must copy.
//   - Sweep and DetectViolation results are recycled by the next sweep.
//   - ValuesInto/FiltersInto append into caller-owned scratch, reusing its
//     capacity; Values/Filters/Tags are their allocating conveniences.
//   - BroadcastRule arguments are fully applied before the call returns,
//     so callers may mutate and reuse one rule across broadcasts.
//
// # Engine reuse
//
// Reset(seed) rewinds an engine to the state a fresh construction with
// that seed would produce, keeping nodes and buffers — the experiment
// harness runs hundreds of trials per table cell on one engine instead of
// constructing one per trial. The Reset property tests assert that a reset
// engine's trace is byte-identical to a fresh engine's.
//
// # Selectivity of Sweep and Collect
//
// The engine routes Sweep and Collect through a value-bucket index
// (internal/vindex) keyed by wire.Pred.Bounds: only nodes whose values can
// possibly match the predicate's interval are visited, so the engine's
// internal scan cost tracks the plausible-matcher count σ rather than n.
// Violation sweeps — whose matches depend on per-node filters, not value
// bounds — are routed through the engine's violator set: the server
// assigns every filter, so the engine rechecks a node whenever its value
// or filter is written and keeps the exact set of violating nodes, making
// the scheduled quiet-step violation sweep O(1) server-side work. All routing
// is an implementation property with NO protocol-visible effect — the
// model's message costs stated on each method, the report contents and id
// order, and every coin flip are identical to a full scan (nodes outside
// the interval could not have matched or sent). Only tag predicates
// (HasTag) and domain-covering intervals scan all nodes, the documented
// fallback. Protocols should therefore prefer interval predicates
// (InRange, AboveActive with a meaningful floor) over tag collects when
// either formulation is available.
package cluster

import (
	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// Cluster is the server's view of the distributed system.
type Cluster interface {
	// N returns the number of nodes.
	N() int
	// Counters exposes the communication accounting.
	Counters() *metrics.Counters
	// Rand is the server-side randomness source.
	Rand() *rngx.Source

	// Reset returns the engine to the state a fresh construction with the
	// same n and the given seed would produce: values zeroed, filters
	// all-admitting, tags cleared, max-find state forgotten, counters
	// emptied, and every RNG stream (server and per-node) rewound. Nodes
	// and internal buffers are retained, so experiment harnesses can run
	// hundreds of independent trials on one engine instead of constructing
	// one per trial. Reset is harness scaffolding: a protocol never calls
	// it, and monitors built on the engine before a Reset must be rebuilt.
	Reset(seed uint64)

	// BroadcastRule sends one filter rule to all nodes (cost 1); each node
	// retags itself and derives its filter from its tag. The rule is fully
	// applied when the call returns, so callers may mutate and reuse it.
	BroadcastRule(rule *wire.FilterRule)
	// SetFilter assigns one node's filter (cost 1).
	SetFilter(id int, iv filter.Interval)
	// SetTagFilter assigns one node's tag and filter in a single unicast
	// (cost 1; both fit well inside the log-size message bound).
	SetTagFilter(id int, t wire.Tag, iv filter.Interval)
	// Probe requests and receives one node's value (cost 2).
	Probe(id int) wire.Report
	// Collect broadcasts a predicate; every matching node reports
	// (cost 1 + number of matches). The returned slice is owned by the
	// engine: it stays valid across at most one further Collect and is
	// recycled after that — protocols holding a result longer must copy.
	Collect(p wire.Pred) []wire.Report

	// Sweep runs the EXISTENCE protocol of Lemma 3.1 for the predicate:
	// zero messages when no node matches; otherwise the senders of the
	// terminating round (each cost 1) plus one halt broadcast. The sweep
	// itself needs no kickoff broadcast — it is part of the per-step
	// schedule all nodes know. The returned slice is owned by the engine
	// and is recycled by the next Sweep or DetectViolation.
	Sweep(p wire.Pred) []wire.Report

	// DetectViolation runs a violation sweep and returns one violator
	// (chosen among the terminating round's senders), or ok=false when no
	// node violates its filter.
	DetectViolation() (wire.Report, bool)

	// MaxFindInit (broadcast, cost 1) activates nodes above floor for a
	// max-find run; reset also clears exclusions.
	MaxFindInit(floor int64, reset bool)
	// MaxFindRaise (broadcast, cost 1) announces a new best.
	MaxFindRaise(holder int, best int64)
	// MaxFindExclude (broadcast, cost 1) benches a found maximum.
	MaxFindExclude(id int)
}

// Inspector is the simulation-scaffolding side door used by the oracle,
// validators, and adaptive adversaries — never by protocols. Engines
// implement it alongside Cluster.
type Inspector interface {
	// Values returns a copy of all current node values.
	Values() []int64
	// ValuesInto appends all current node values to dst[:0] and returns
	// it, reusing dst's capacity — the allocation-free form of Values for
	// per-step loops.
	ValuesInto(dst []int64) []int64
	// Filters returns a copy of all current node filters.
	Filters() []filter.Interval
	// FiltersInto appends all current node filters to dst[:0] and returns
	// it, reusing dst's capacity.
	FiltersInto(dst []filter.Interval) []filter.Interval
	// Tags returns a copy of all current node tags.
	Tags() []wire.Tag
	// Advance installs the next observations (start of a time step).
	Advance(values []int64)
	// EndStep closes the step's round accounting.
	EndStep()
}

// Engine combines the protocol-facing and scaffolding-facing interfaces.
type Engine interface {
	Cluster
	Inspector
}
