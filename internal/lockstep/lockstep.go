// Package lockstep implements the cluster interface as a deterministic
// sequential simulation: nodes are plain structs, rounds are loops, and the
// only nondeterminism comes from explicitly seeded PRNGs. It is the primary
// substrate for unit tests, property tests, and the experiment harness,
// and is — by construction — exactly the synchronous unit-cost model of
// Section 2.
//
// The engine keeps a value-bucket index and a filter-interval mirror
// (internal/vindex) over its nodes, maintained incrementally at every node
// mutation: predicate-routed primitives (Sweep, Collect) visit only the
// nodes whose values can match the predicate's wire.Pred.Bounds interval,
// and violation sweeps visit exactly the mirror's violator set, so their
// step cost tracks the number of plausible matchers instead of n. Tag
// predicates and domain-covering intervals fall back to the full scan.
// Routing is invisible to protocols: reports stay in id order, only
// matching nodes consume randomness, and messages are counted identically —
// asserted byte-for-byte by TestIndexedScanMatchesFullScan.
package lockstep

import (
	"fmt"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

// Engine is a deterministic lockstep cluster of n nodes.
type Engine struct {
	nodes []*nodecore.Node
	ctr   *metrics.Counters
	rng   *rngx.Source
	maxV  int64 // running Δ for message-size accounting

	// idx is the value-bucket index (maintained on Advance) and mir the
	// filter-interval mirror (maintained at every filter assignment) over
	// the nodes; cand and scan are the scratch scanList turns predicates
	// into id-ordered scan lists with. visited counts the node structs
	// predicate-routed primitives actually touched — the observable the
	// index shrinks from n per round to the plausible-matcher count
	// (reported by E12).
	idx     *vindex.Index
	mir     *vindex.Mirror
	cand    []int32
	scan    []*nodecore.Node
	visited int64

	// FullScan forces the full-scan path everywhere. Ablation scaffolding
	// (like DirectReports) for the index equivalence property tests and
	// BenchmarkViolationSweep; leave false otherwise. It never perturbs
	// outputs, counters, or coin flips — only the engine-side scan cost.
	FullScan bool

	// sweepBuf backs the slices returned by Sweep/directSweep; collectBufs
	// double-buffer Collect so protocols holding one Collect result across
	// a second Collect (DENSEPROTOCOL, the Cor 5.9 monitor) stay correct.
	// See the ownership contract on cluster.Cluster.
	sweepBuf    []wire.Report
	collectBufs [2][]wire.Report
	collectIdx  int

	// DirectReports disables the EXISTENCE protocol: every matching node
	// reports in a single round, each paying one message — the naive
	// reporting scheme the paper's Section 3 improves on. Used by the
	// E11 ablation; leave false for the paper's algorithms.
	DirectReports bool
}

// serverRNG is the Child id of the server-side randomness stream. Its value
// fixes the server coin flips every seed replays, so changing it changes
// every recorded run.
const serverRNG = 0xC0FFEE

// New returns an engine with n nodes, all values 0, all filters [0, ∞].
func New(n int, seed uint64) *Engine {
	if n < 1 {
		panic("lockstep: need at least one node")
	}
	root := rngx.New(seed)
	e := &Engine{
		nodes: make([]*nodecore.Node, n),
		ctr:   metrics.NewCounters(),
		rng:   root.Child(serverRNG),
		maxV:  1,
		idx:   vindex.New(n),
		mir:   vindex.NewMirror(n),
	}
	for i := range e.nodes {
		e.nodes[i] = nodecore.New(i, root)
	}
	return e
}

// Reset implements cluster.Cluster: it rewinds the engine to the state
// New(len(nodes), seed) constructs, reusing nodes, counters, and the
// sweep/collect buffers. A reset engine replays a fresh engine's run
// bit for bit (asserted by the Reset property tests), which lets the
// experiment harness reuse one engine across all trials of a table cell.
func (e *Engine) Reset(seed uint64) {
	root := rngx.New(seed)
	for _, nd := range e.nodes {
		nd.Reset(root)
	}
	e.ctr.Reset()
	e.rng.Reseed(root.ChildSeed(serverRNG))
	e.maxV = 1
	e.idx.Reset()
	e.mir.Reset()
	e.visited = 0
	e.DirectReports = false
	e.FullScan = false
}

// N implements cluster.Cluster.
func (e *Engine) N() int { return len(e.nodes) }

// Counters implements cluster.Cluster.
func (e *Engine) Counters() *metrics.Counters { return e.ctr }

// Rand implements cluster.Cluster.
func (e *Engine) Rand() *rngx.Source { return e.rng }

// Advance installs the next observations; it is simulation scaffolding (the
// streams are observed locally at the nodes) and costs nothing.
func (e *Engine) Advance(values []int64) {
	if len(values) != len(e.nodes) {
		panic(fmt.Sprintf("lockstep: Advance with %d values for %d nodes", len(values), len(e.nodes)))
	}
	for i, nd := range e.nodes {
		v := values[i]
		if v < 0 || v > eps.MaxValue {
			panic(fmt.Sprintf("lockstep: value %d for node %d outside [0, %d]", v, i, eps.MaxValue))
		}
		nd.Observe(v)
		e.idx.Update(i, v)
		e.mir.SetValue(i, v)
		if v > e.maxV {
			e.maxV = v
		}
	}
}

// EndStep closes the current step's round accounting.
func (e *Engine) EndStep() { e.ctr.EndStep() }

// Values implements cluster.Inspector.
func (e *Engine) Values() []int64 {
	return e.ValuesInto(make([]int64, 0, len(e.nodes)))
}

// ValuesInto implements cluster.Inspector: it appends all current node
// values to dst[:0] and returns it, growing dst only when too small.
func (e *Engine) ValuesInto(dst []int64) []int64 {
	dst = dst[:0]
	for _, nd := range e.nodes {
		dst = append(dst, nd.Value)
	}
	return dst
}

// Filters implements cluster.Inspector.
func (e *Engine) Filters() []filter.Interval {
	return e.FiltersInto(make([]filter.Interval, 0, len(e.nodes)))
}

// FiltersInto implements cluster.Inspector: it appends all current node
// filters to dst[:0] and returns it, growing dst only when too small.
func (e *Engine) FiltersInto(dst []filter.Interval) []filter.Interval {
	dst = dst[:0]
	for _, nd := range e.nodes {
		dst = append(dst, nd.Filter)
	}
	return dst
}

// Tags implements cluster.Inspector.
func (e *Engine) Tags() []wire.Tag {
	ts := make([]wire.Tag, len(e.nodes))
	for i, nd := range e.nodes {
		ts[i] = nd.Tag
	}
	return ts
}

// VisitedNodes returns the cumulative number of node structs the
// predicate-routed primitives (Sweep, DetectViolation, Collect) have
// touched since construction or the last Reset — per sweep round, the size
// of the scan list. Simulation scaffolding for measuring the value index's
// selectivity (experiment E12); it is not message accounting and not part
// of the cluster interfaces.
func (e *Engine) VisitedNodes() int64 { return e.visited }

// scanList returns the nodes a predicate-routed primitive must visit, in
// ascending id order. It is the engine's one routing policy: the mirror's
// violator set for the violation predicate, the index candidates for a
// predicate's value bounds, or all nodes for the full-scan fallback — tag
// predicates and domain-covering intervals (e.g. AboveActive(-1)), where
// routing could prune nothing and sorting candidates would only add cost.
// Non-routable predicates bill one full-scan fallback on the counters; the
// decision is predicate-only, so the FullScan ablation toggle never
// perturbs the count. The result is engine scratch recycled by the next
// call (or e.nodes itself); candidate values may lie outside the bounds
// (bucket coarsening), so callers still Match every node.
func (e *Engine) scanList(p wire.Pred) []*nodecore.Node {
	if !vindex.Routable(p) {
		e.ctr.IndexFallback()
		return e.nodes
	}
	if e.FullScan {
		return e.nodes
	}
	if p.Kind == wire.PredViolating {
		e.cand = e.mir.AppendViolators(e.cand[:0])
	} else {
		lo, hi, _ := p.Bounds()
		e.cand = e.idx.AppendSorted(e.cand[:0], lo, hi)
	}
	e.scan = e.scan[:0]
	for _, id := range e.cand {
		e.scan = append(e.scan, e.nodes[id])
	}
	return e.scan
}

func (e *Engine) count(ch metrics.Channel, k wire.Kind) {
	e.ctr.Count(ch, k.String(), wire.MsgBits(k, len(e.nodes), e.maxV))
}

// BroadcastRule implements cluster.Cluster. Each node's derived filter is
// re-mirrored after the rule applies — the mirror needs no tag state of its
// own, it records what the node actually holds.
func (e *Engine) BroadcastRule(rule *wire.FilterRule) {
	e.count(metrics.Broadcast, wire.KindFilterRule)
	e.ctr.Rounds(1)
	for _, nd := range e.nodes {
		nd.ApplyFilterRule(rule)
		e.mir.SetFilter(nd.ID, nd.Filter)
	}
}

// SetFilter implements cluster.Cluster.
func (e *Engine) SetFilter(id int, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	e.nodes[id].SetFilter(iv)
	e.mir.SetFilter(id, iv)
}

// SetTagFilter implements cluster.Cluster.
func (e *Engine) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	nd := e.nodes[id]
	nd.SetTag(t)
	nd.SetFilter(iv)
	e.mir.SetFilter(id, iv)
}

// Probe implements cluster.Cluster.
func (e *Engine) Probe(id int) wire.Report {
	e.count(metrics.ServerToNode, wire.KindProbeRequest)
	e.count(metrics.NodeToServer, wire.KindProbeReply)
	e.ctr.Rounds(1)
	nd := e.nodes[id]
	return wire.Report{ID: id, Value: nd.Value, Dir: nd.Violation()}
}

// Collect implements cluster.Cluster. Results alternate between two
// engine-owned buffers, honouring the Cluster contract that a Collect result
// survives exactly one further Collect. The scan is routed through the value
// index when the predicate exposes bounds, so server-side work tracks the
// plausible matchers, not n; the message cost (1 broadcast + 1 per match) is
// identical either way.
func (e *Engine) Collect(p wire.Pred) []wire.Report {
	e.count(metrics.Broadcast, wire.KindCollect)
	e.ctr.Rounds(1)
	out := e.collectBufs[e.collectIdx][:0]
	scan := e.scanList(p)
	e.visited += int64(len(scan))
	for _, nd := range scan {
		if nd.Match(p) {
			e.count(metrics.NodeToServer, wire.KindCollectReply)
			out = append(out, wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()})
		}
	}
	e.collectBufs[e.collectIdx] = out
	e.collectIdx ^= 1
	return out
}

// Sweep implements cluster.Cluster: the EXISTENCE protocol of Lemma 3.1.
// Nodes matching the predicate send independently with probability
// p_r = 2^r/n per round; the first non-empty round terminates the sweep
// (one halt broadcast). With no matching node the sweep is silent and free.
func (e *Engine) Sweep(p wire.Pred) []wire.Report {
	if e.DirectReports {
		return e.directSweep(p)
	}
	// The candidate list is stable across the sweep's rounds: values only
	// change on Advance, which cannot interleave with a running sweep.
	scan := e.scanList(p)
	gamma := nodecore.ExistenceRounds(len(e.nodes))
	for r := 0; r <= gamma; r++ {
		e.ctr.Rounds(1)
		e.visited += int64(len(scan))
		senders := e.sweepBuf[:0]
		for _, nd := range scan {
			if nd.Match(p) && nd.ExistenceSend(r, len(e.nodes)) {
				e.count(metrics.NodeToServer, wire.KindExistenceReport)
				senders = append(senders, wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()})
			}
		}
		e.sweepBuf = senders[:0]
		if len(senders) > 0 {
			e.count(metrics.Broadcast, wire.KindHalt)
			return senders
		}
	}
	return nil
}

// directSweep is the naive reporting scheme (one round, every matching node
// sends); it is always correct but costs one message per matching node per
// sweep — the baseline against which Lemma 3.1's O(1) expectation wins.
func (e *Engine) directSweep(p wire.Pred) []wire.Report {
	e.ctr.Rounds(1)
	senders := e.sweepBuf[:0]
	scan := e.scanList(p)
	e.visited += int64(len(scan))
	for _, nd := range scan {
		if nd.Match(p) {
			e.count(metrics.NodeToServer, wire.KindExistenceReport)
			senders = append(senders, wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()})
		}
	}
	e.sweepBuf = senders[:0]
	if len(senders) == 0 {
		return nil
	}
	return senders
}

// DetectViolation implements cluster.Cluster: one violation sweep; among the
// terminating round's senders one is chosen uniformly (the server "processes
// one violation at a time in an arbitrary order").
func (e *Engine) DetectViolation() (wire.Report, bool) {
	senders := e.Sweep(wire.Violating())
	if len(senders) == 0 {
		return wire.Report{}, false
	}
	return senders[e.rng.Intn(len(senders))], true
}

// MaxFindInit implements cluster.Cluster.
func (e *Engine) MaxFindInit(floor int64, reset bool) {
	e.count(metrics.Broadcast, wire.KindMaxFindInit)
	e.ctr.Rounds(1)
	for _, nd := range e.nodes {
		nd.MaxFindInit(floor, reset)
	}
}

// MaxFindRaise implements cluster.Cluster.
func (e *Engine) MaxFindRaise(holder int, best int64) {
	e.count(metrics.Broadcast, wire.KindMaxFindRaise)
	e.ctr.Rounds(1)
	for _, nd := range e.nodes {
		nd.MaxFindRaise(holder, best)
	}
}

// MaxFindExclude implements cluster.Cluster.
func (e *Engine) MaxFindExclude(id int) {
	e.count(metrics.Broadcast, wire.KindMaxFindExclude)
	e.ctr.Rounds(1)
	for _, nd := range e.nodes {
		nd.MaxFindExclude(id)
	}
}
