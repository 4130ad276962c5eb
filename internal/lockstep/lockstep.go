// Package lockstep implements the cluster interface as a deterministic
// sequential simulation: node state is a set of per-node slices, rounds are
// loops, and the only nondeterminism comes from explicitly seeded PRNGs. It
// is the primary substrate for unit tests, property tests, and the
// experiment harness, and is — by construction — exactly the synchronous
// unit-cost model of Section 2.
//
// A node holds a value, a filter, the server's tag, its max-find
// participation and its own RNG stream for the EXISTENCE coin flips; the
// engine stores each of these once, indexed by node id. Alongside it keeps
// a value-bucket index (internal/vindex) and the exact violator set (an
// internal/idset.Set), both updated where values and filters are written:
// Advance writes values, setFilter writes filters, and Reset rewinds both.
// No other code writes them, so the two structures cannot drift from the
// node state. Predicate-routed primitives (Sweep, Collect) visit only the
// nodes whose values can match the predicate's wire.Pred.Bounds interval,
// and violation sweeps visit exactly the violator set, so their step cost
// tracks the number of plausible matchers instead of n. Tag predicates and
// domain-covering intervals fall back to the full scan.
// Routing is invisible to protocols: reports stay in id order, only
// matching nodes consume randomness, and messages are counted identically —
// asserted byte-for-byte by TestIndexedScanMatchesFullScan.
package lockstep

import (
	"fmt"
	"math/bits"
	"slices"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/idset"
	"topkmon/internal/metrics"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

// Engine is a deterministic lockstep cluster of n nodes.
type Engine struct {
	// Node state, indexed by node id. Only Advance and Reset write val and
	// only setFilter and Reset write flt, each keeping idx and vio current.
	val        []int64
	flt        []filter.Interval
	tag        []wire.Tag
	mfActive   []bool // participates in the current max-find run
	mfExcluded []bool // returned by an earlier run of the same top-m computation
	rngs       []rngx.Source

	ctr  *metrics.Counters
	rng  *rngx.Source
	maxV int64 // running Δ for message-size accounting

	// idx is the value-bucket index and vio the set of nodes whose value
	// lies outside their filter; all lists every id for the full-scan
	// fallback and cand is the scratch scanList builds routed scan lists
	// in. visited sums the scan lists predicate-routed primitives visit,
	// once per round — the observable the index shrinks from n per round
	// to the plausible-matcher count (reported by E12).
	idx     *vindex.Index
	vio     idset.Set
	all     []int32
	cand    []int32
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
// It allocates a fixed number of slices whatever n is.
func New(n int, seed uint64) *Engine {
	if n < 1 {
		panic("lockstep: need at least one node")
	}
	e := &Engine{
		val:        make([]int64, n),
		flt:        make([]filter.Interval, n),
		tag:        make([]wire.Tag, n),
		mfActive:   make([]bool, n),
		mfExcluded: make([]bool, n),
		rngs:       make([]rngx.Source, n),
		ctr:        metrics.NewCounters(),
		rng:        new(rngx.Source),
		idx:        vindex.New(n),
		vio:        idset.New(n),
		all:        make([]int32, n),
	}
	for i := range e.all {
		e.all[i] = int32(i)
	}
	e.Reset(seed)
	return e
}

// Reset implements cluster.Cluster: it rewinds the engine to the state
// New(N(), seed) constructs, reusing node state, counters, and the
// sweep/collect buffers. A reset engine replays a fresh engine's run
// bit for bit (asserted by the Reset property tests), which lets the
// experiment harness reuse one engine across all trials of a table cell.
// Every node's RNG is the root's child stream for its id.
func (e *Engine) Reset(seed uint64) {
	root := rngx.New(seed)
	for i := range e.val {
		e.val[i] = 0
		e.flt[i] = filter.All
		e.tag[i] = wire.TagNone
		e.mfActive[i] = false
		e.mfExcluded[i] = false
		e.rngs[i].Reseed(root.ChildSeed(uint64(i)))
	}
	e.vio.Clear()
	e.ctr.Reset()
	e.rng.Reseed(root.ChildSeed(serverRNG))
	e.maxV = 1
	e.idx.Reset()
	e.visited = 0
	e.DirectReports = false
	e.FullScan = false
}

// N implements cluster.Cluster.
func (e *Engine) N() int { return len(e.val) }

// Counters implements cluster.Cluster.
func (e *Engine) Counters() *metrics.Counters { return e.ctr }

// Rand implements cluster.Cluster.
func (e *Engine) Rand() *rngx.Source { return e.rng }

// Advance installs the next observations; it is simulation scaffolding (the
// streams are observed locally at the nodes) and costs nothing.
func (e *Engine) Advance(values []int64) {
	if len(values) != len(e.val) {
		panic(fmt.Sprintf("lockstep: Advance with %d values for %d nodes", len(values), len(e.val)))
	}
	for i, v := range values {
		if v < 0 || v > eps.MaxValue {
			panic(fmt.Sprintf("lockstep: value %d for node %d outside [0, %d]", v, i, eps.MaxValue))
		}
		e.val[i] = v
		e.idx.Update(i, v)
		e.recheck(i)
		if v > e.maxV {
			e.maxV = v
		}
	}
}

// setFilter assigns node i's filter: the one write of flt outside Reset.
func (e *Engine) setFilter(i int, iv filter.Interval) {
	e.flt[i] = iv
	e.recheck(i)
}

// recheck moves node i in or out of the violator set after its value or
// filter changed.
func (e *Engine) recheck(i int) {
	if e.flt[i].Contains(e.val[i]) {
		e.vio.Del(i)
	} else {
		e.vio.Add(i)
	}
}

// EndStep closes the current step's round accounting.
func (e *Engine) EndStep() { e.ctr.EndStep() }

// Values implements cluster.Inspector.
func (e *Engine) Values() []int64 { return slices.Clone(e.val) }

// ValuesInto implements cluster.Inspector: it appends all current node
// values to dst[:0] and returns it, growing dst only when too small.
func (e *Engine) ValuesInto(dst []int64) []int64 { return append(dst[:0], e.val...) }

// Filters implements cluster.Inspector.
func (e *Engine) Filters() []filter.Interval { return slices.Clone(e.flt) }

// FiltersInto implements cluster.Inspector: it appends all current node
// filters to dst[:0] and returns it, growing dst only when too small.
func (e *Engine) FiltersInto(dst []filter.Interval) []filter.Interval {
	return append(dst[:0], e.flt...)
}

// Tags implements cluster.Inspector.
func (e *Engine) Tags() []wire.Tag { return slices.Clone(e.tag) }

// VisitedNodes returns the cumulative number of nodes the
// predicate-routed primitives (Sweep, DetectViolation, Collect) have
// visited since construction or the last Reset, counting the size of the
// scan list once per round — the nodes that evaluate the predicate in the
// model, whether or not the engine rechecks them each round. Simulation scaffolding for measuring the value index's
// selectivity (experiment E12); it is not message accounting and not part
// of the cluster interfaces.
func (e *Engine) VisitedNodes() int64 { return e.visited }

// scanList returns the ids a predicate-routed primitive must visit, in
// ascending order. It is the engine's one routing policy: the violator set
// for the violation predicate, the index candidates for a predicate's value
// bounds, or every id for the full-scan fallback — tag predicates and
// domain-covering intervals (e.g. AboveActive(-1)), where routing could
// prune nothing and sorting candidates would only add cost. Non-routable
// predicates bill one full-scan fallback on the counters; the decision is
// predicate-only, so the FullScan ablation toggle never perturbs the
// count. The result is engine scratch recycled by the next call (or the
// prebuilt all-ids list); candidate values may lie outside the bounds
// (bucket coarsening), so callers still match every id.
func (e *Engine) scanList(p wire.Pred) []int32 {
	if !vindex.Routable(p) {
		e.ctr.IndexFallback()
		return e.all
	}
	if e.FullScan {
		return e.all
	}
	e.cand = e.cand[:0]
	if p.Kind != wire.PredViolating {
		lo, hi, _ := p.Bounds()
		e.cand = e.idx.AppendSorted(e.cand, lo, hi)
	} else if e.vio.Len() > 0 { // a quiet step skips the word scan
		for i := range e.vio.All() {
			e.cand = append(e.cand, int32(i))
		}
	}
	return e.cand
}

// match evaluates a broadcastable predicate against node i's local state.
// It decides the violation predicate from the node's value and filter, not
// from the violator set, so the FullScan ablation stays an independent
// reference for the routed scans.
func (e *Engine) match(i int32, p wire.Pred) bool {
	switch p.Kind {
	case wire.PredViolating:
		return !e.flt[i].Contains(e.val[i])
	case wire.PredAboveActive:
		return e.mfActive[i] && e.val[i] > p.X
	case wire.PredInRange:
		return e.val[i] >= p.X && e.val[i] <= p.Y
	case wire.PredHasTag:
		return e.tag[i] == p.Tag
	default:
		return false
	}
}

// report is node i's reply: its id, value and violation direction.
func (e *Engine) report(i int32) wire.Report {
	return wire.Report{ID: int(i), Value: e.val[i], Dir: e.flt[i].Violation(e.val[i])}
}

func (e *Engine) count(ch metrics.Channel, k wire.Kind) {
	e.ctr.Count(ch, k.String(), wire.MsgBits(k, len(e.val), e.maxV))
}

// BroadcastRule implements cluster.Cluster. Every node first retags per
// the rule, then derives its filter from its (possibly new) tag; nodes
// whose tag the rule does not define keep their filter.
func (e *Engine) BroadcastRule(rule *wire.FilterRule) {
	e.count(metrics.Broadcast, wire.KindFilterRule)
	e.ctr.Rounds(1)
	for i := range e.tag {
		var iv filter.Interval
		e.tag[i], iv = rule.Apply(e.tag[i], e.flt[i])
		e.setFilter(i, iv)
	}
}

// SetFilter implements cluster.Cluster.
func (e *Engine) SetFilter(id int, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	e.setFilter(id, iv)
}

// SetTagFilter implements cluster.Cluster.
func (e *Engine) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	e.count(metrics.ServerToNode, wire.KindSetFilter)
	e.tag[id] = t
	e.setFilter(id, iv)
}

// Probe implements cluster.Cluster.
func (e *Engine) Probe(id int) wire.Report {
	e.count(metrics.ServerToNode, wire.KindProbeRequest)
	e.count(metrics.NodeToServer, wire.KindProbeReply)
	e.ctr.Rounds(1)
	return e.report(int32(id))
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
	for _, i := range scan {
		if e.match(i, p) {
			e.count(metrics.NodeToServer, wire.KindCollectReply)
			out = append(out, e.report(i))
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
	// Node state cannot change during a sweep, so the matchers are found
	// once and only they flip coins in each round. They are compacted into
	// the candidate scratch, which scan may itself be: no write overtakes
	// the read.
	scan := e.scanList(p)
	hits := e.cand[:0]
	for _, i := range scan {
		if e.match(i, p) {
			hits = append(hits, i)
		}
	}
	e.cand = hits
	gamma := ExistenceRounds(len(e.val))
	for r := 0; r <= gamma; r++ {
		e.ctr.Rounds(1)
		e.visited += int64(len(scan))
		senders := e.sweepBuf[:0]
		for _, i := range hits {
			if e.existenceSend(i, r, gamma) {
				e.count(metrics.NodeToServer, wire.KindExistenceReport)
				senders = append(senders, e.report(i))
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

// ExistenceRounds returns γ = ⌈log₂ n⌉, the number of probabilistic rounds
// of the EXISTENCE protocol (Lemma 3.1) over n nodes. Round γ sends with
// probability 1.
func ExistenceRounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// existenceSend decides whether matching node i sends in round r of a
// sweep with gamma = ExistenceRounds(N()) rounds: independently with
// probability p_r = 2^r / n from the node's own RNG, and with certainty in
// the final round.
func (e *Engine) existenceSend(i int32, r, gamma int) bool {
	if r >= gamma {
		return true
	}
	return e.rngs[i].Bool(float64(uint64(1)<<uint(r)) / float64(len(e.val)))
}

// directSweep is the naive reporting scheme (one round, every matching node
// sends); it is always correct but costs one message per matching node per
// sweep — the baseline against which Lemma 3.1's O(1) expectation wins.
func (e *Engine) directSweep(p wire.Pred) []wire.Report {
	e.ctr.Rounds(1)
	senders := e.sweepBuf[:0]
	scan := e.scanList(p)
	e.visited += int64(len(scan))
	for _, i := range scan {
		if e.match(i, p) {
			e.count(metrics.NodeToServer, wire.KindExistenceReport)
			senders = append(senders, e.report(i))
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

// MaxFindInit implements cluster.Cluster: every node above the floor that
// is not excluded joins a fresh max-find run; with reset, earlier
// exclusions are forgotten first, starting a new top-m computation.
func (e *Engine) MaxFindInit(floor int64, reset bool) {
	e.count(metrics.Broadcast, wire.KindMaxFindInit)
	e.ctr.Rounds(1)
	if reset {
		clear(e.mfExcluded)
	}
	for i, v := range e.val {
		e.mfActive[i] = !e.mfExcluded[i] && v > floor
	}
}

// MaxFindRaise implements cluster.Cluster: the holder of the new best and
// every node not exceeding it drop out of the run.
func (e *Engine) MaxFindRaise(holder int, best int64) {
	e.count(metrics.Broadcast, wire.KindMaxFindRaise)
	e.ctr.Rounds(1)
	for i, v := range e.val {
		if i == holder || v <= best {
			e.mfActive[i] = false
		}
	}
}

// MaxFindExclude implements cluster.Cluster: the named node sits out every
// run until the next resetting init.
func (e *Engine) MaxFindExclude(id int) {
	e.count(metrics.Broadcast, wire.KindMaxFindExclude)
	e.ctr.Rounds(1)
	e.mfExcluded[id] = true
	e.mfActive[id] = false
}
