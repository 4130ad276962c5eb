// Package live implements the cluster interface with genuinely concurrent
// workers communicating over channels — the protocols running against a
// "distributed" cluster rather than a sequential loop.
//
// No product path constructs this engine: the topk facade, the tenant
// server and the commands all run internal/lockstep, and a tenant config
// that still says "engine":"live" is served by lockstep. The package stays
// only as a test reference, its tests proving that sharded concurrent
// execution reproduces lockstep bit for bit (the fact that makes serving
// those legacy configs by lockstep unobservable). It is due for deletion.
//
// # Worker shards
//
// The engine runs m ≪ n worker goroutines (m defaults to GOMAXPROCS,
// configurable with WithShards), each owning a contiguous shard of roughly
// n/m nodes. Model nodes are thereby decoupled from OS-level concurrency: a
// directive that used to wake n goroutines now wakes m workers, each of
// which executes the directive over its own nodes sequentially — the fix
// for the n = 10⁴ step cost where every quiet step paid n channel wake-ups
// per barrier round. One goroutine per node is the m = n special case.
//
// Each shard also owns a value-bucket partition and a filter-interval
// mirror (internal/vindex) over its nodes, maintained incrementally as the
// directives mutating node state execute: Collect and EXISTENCE-sweep
// rounds consult wire.Pred.Bounds and visit only the shard's plausible
// matchers, violation sweeps visit exactly the shard's mirrored violator
// set, falling back to the full shard scan for tag predicates or
// domain-covering intervals. Server-side work per response-bearing round is
// O(m + matches) — workers publish their matches into per-shard report
// lists which the server concatenates in shard order — instead of scanning
// all n response slots.
//
// # Batched directives
//
// The server does not send one channel message per node per directive.
// Instead it appends directives to a pending batch and flushes the batch as
// one barrier round: a single signal per participating worker, after which
// each worker walks the shared batch, executes the directives addressed to
// its shard in order, publishes replies (per-shard report lists for
// Collect/sweep rounds; per-node slots for Probe and Inspector snapshots),
// and decrements an atomic countdown whose last holder wakes the server.
// Directives that need no answer (Advance, BroadcastRule, SetFilter,
// SetTagFilter, MaxFind*, Reset) are deferred — they ride along with the
// next response-bearing flush — so a typical time step pays one barrier for
// Advance + the first sweep round combined instead of one per directive.
// Per-node execution order equals call order, so deferral is semantically
// invisible.
//
// The batch, the report lists, the response slots, and the slices returned
// by Collect/Sweep are all engine-owned and reused, mirroring the lockstep
// engine's buffers: the steady state allocates nothing (asserted by
// TestLiveStepAllocs and tracked by BenchmarkLiveStep). Report-slice
// ownership follows the cluster.Cluster contract — a Collect result
// survives exactly one further Collect, a Sweep result only until the next
// Sweep.
//
// # Semantics
//
// Semantics match the lockstep engine exactly: a flush is a synchronous
// round (the barrier realises the model's rounds; barrier tokens are
// simulation scaffolding and carry no message cost). Workers visit their
// candidate nodes in ascending id order and shards cover ascending id
// ranges, so concatenated reports are in id order; node-side randomness is
// consumed only by matching nodes, exactly as in lockstep. A live run with
// the same seed therefore reproduces the lockstep run's counters and
// outputs bit for bit — for every shard count — asserted by this
// package's equivalence tests up to n = 10⁴ and its Reset suite.
package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/metrics"
	"topkmon/internal/nodecore"
	"topkmon/internal/rngx"
	"topkmon/internal/vindex"
	"topkmon/internal/wire"
)

type dirKind uint8

const (
	dirAdvance   dirKind = iota // per-node values in Cluster.advVals
	dirApplyRule                // rule at Cluster.rules[ruleIdx]
	dirSetFilter
	dirSetTagFilter
	dirProbe
	dirCollect
	dirExistRound
	dirMaxInit
	dirMaxRaise
	dirMaxExclude
	dirSnapshot
	dirReset
	dirStop
)

// allNodes as a directive target addresses every worker.
const allNodes = -1

// serverRNG is the Child id of the server-side randomness stream, shared
// with the lockstep engine so both derive identical server coin flips from
// the same seed.
const serverRNG = 0xC0FFEE

type directive struct {
	kind    dirKind
	target  int // node id, or allNodes
	value   int64
	ruleIdx int
	iv      filter.Interval
	tag     wire.Tag
	pred    wire.Pred
	round   int
	reset   bool
	holder  int
	best    int64
	seed    uint64
}

// response is one node's answer slot for Probe and Inspector snapshots;
// slot i is written only by the worker owning node i during a flush and
// read only by the server after it. Collect and sweep-round replies go
// through the per-shard report lists instead, so quiet rounds touch no
// slots at all.
type response struct {
	report wire.Report
	// snapshot fields (Inspector scaffolding)
	value int64
	filt  filter.Interval
	tag   wire.Tag
}

// shard is the node range one worker goroutine owns: the nodes themselves,
// the value-bucket partition + filter-interval mirror + routing scratch
// over them (vindex.Router, the same routing policy the lockstep engine
// uses — the mirror is updated by the same directive that mutates the
// node, on the owning worker, so it can never desync), and
// the report list the worker publishes matches into. sweepScan caches the
// routed scan list across one sweep's EXISTENCE rounds: values cannot
// change mid-sweep, so rounds > 0 reuse round 0's candidates instead of
// re-sorting them γ times.
type shard struct {
	base      int // id of nodes[0]; the shard covers [base, base+len(nodes))
	nodes     []*nodecore.Node
	router    vindex.Router // indexes shard-local ids: node id minus base
	sweepScan []*nodecore.Node
	out       []wire.Report // this flush's Collect/sweep replies, id order
}

// node returns the shard's node with the given absolute id.
func (sh *shard) node(id int) *nodecore.Node { return sh.nodes[id-sh.base] }

// config collects construction options.
type config struct {
	shards int
}

// Option configures the engine at construction.
type Option func(*config)

// WithShards sets the number of worker goroutines (shards) the engine runs.
// Each worker owns a contiguous range of roughly n/m nodes and its own
// value-bucket partition. Any m ≤ 0 (including the default 0) means
// runtime.GOMAXPROCS(0); values above n are clamped to n. The shard count
// never affects observable behaviour — outputs, counters, and coin flips
// are bit-identical for every value (asserted by the sharded conformance
// and equivalence tests) — it only trades goroutine parallelism against
// wake-up cost.
func WithShards(m int) Option {
	return func(c *config) { c.shards = m }
}

// Cluster is the sharded concurrent engine.
type Cluster struct {
	n    int
	m    int // worker (shard) count
	ctr  *metrics.Counters
	rng  *rngx.Source
	maxV int64

	shards   []*shard
	workerOf []int32 // node id → owning worker index

	// Pending batch. The server owns these between flushes; workers read
	// them (and only them) during a flush. advPending coalesces repeated
	// Advance calls into one directive — only when no other directive was
	// pushed in between, because deferred directives may read node values
	// at execution time (see Advance).
	pend       []directive
	rules      []wire.FilterRule
	advVals    []int64
	advPending bool

	// Flush delivery: per-worker signal channels, an atomic countdown, and
	// one completion channel the last worker signals. touched/touchedIDs
	// track which workers a unicast-only batch must wake; a broadcast
	// directive sets allTouched instead.
	sig        []chan struct{}
	remaining  atomic.Int64
	done       chan struct{}
	touched    []bool
	touchedIDs []int
	allTouched bool

	// resp holds one slot per node, indexed by id, for Probe replies and
	// Inspector snapshots.
	resp []response

	// Report buffers mirroring the lockstep engine's ownership contract:
	// sweepBuf backs Sweep results (recycled by the next Sweep), the
	// double-buffered collectBufs let a Collect result survive exactly one
	// further Collect.
	sweepBuf    []wire.Report
	collectBufs [2][]wire.Report
	collectIdx  int

	wg    sync.WaitGroup
	alive bool
}

// DefaultShards returns the worker-shard policy New applies when WithShards
// is not given (or is ≤ 0): one worker per schedulable CPU, i.e.
// GOMAXPROCS at construction time. New additionally clamps the count to n.
// Exported so harnesses (the bench-env stamp in the root test suite) can
// record the actual policy instead of duplicating it.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// New starts the engine's worker goroutines over n nodes.
func New(n int, seed uint64, opts ...Option) *Cluster {
	if n < 1 {
		panic("live: need at least one node")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	m := cfg.shards
	if m <= 0 {
		m = DefaultShards()
	}
	if m > n {
		m = n
	}
	root := rngx.New(seed)
	c := &Cluster{
		n:          n,
		m:          m,
		ctr:        metrics.NewCounters(),
		rng:        root.Child(serverRNG),
		maxV:       1,
		shards:     make([]*shard, m),
		workerOf:   make([]int32, n),
		advVals:    make([]int64, n),
		sig:        make([]chan struct{}, m),
		done:       make(chan struct{}, 1),
		touched:    make([]bool, m),
		touchedIDs: make([]int, 0, m),
		resp:       make([]response, n),
		alive:      true,
	}
	// Contiguous near-equal shards: the first n%m shards get one extra node.
	q, r := n/m, n%m
	base := 0
	for w := 0; w < m; w++ {
		size := q
		if w < r {
			size++
		}
		sh := &shard{
			base:  base,
			nodes: make([]*nodecore.Node, size),
			router: vindex.Router{
				Idx: vindex.New(size),
				Mir: vindex.NewMirror(size),
			},
		}
		for i := range sh.nodes {
			sh.nodes[i] = nodecore.New(base+i, root)
			c.workerOf[base+i] = int32(w)
		}
		c.shards[w] = sh
		c.sig[w] = make(chan struct{}, 1)
		base += size
		c.wg.Add(1)
		go c.worker(w, sh)
	}
	return c
}

// Shards returns the worker (shard) count m.
func (c *Cluster) Shards() int { return c.m }

// worker is one shard's goroutine: it owns the shard's node and index state
// and, once per flush it participates in, executes the pending directives
// addressed to its shard in batch order.
func (c *Cluster) worker(w int, sh *shard) {
	defer c.wg.Done()
	mine := int32(w)
	for range c.sig[w] {
		stop := false
		sh.out = sh.out[:0]
		for i := range c.pend {
			d := &c.pend[i]
			switch d.kind {
			case dirAdvance:
				for i, nd := range sh.nodes {
					nd.Observe(c.advVals[nd.ID])
					sh.router.Idx.Update(i, nd.Value)
					sh.router.Mir.SetValue(i, nd.Value)
				}
			case dirApplyRule:
				for i, nd := range sh.nodes {
					nd.ApplyFilterRule(&c.rules[d.ruleIdx])
					sh.router.Mir.SetFilter(i, nd.Filter)
				}
			case dirSetFilter:
				if c.workerOf[d.target] == mine {
					sh.node(d.target).SetFilter(d.iv)
					sh.router.Mir.SetFilter(d.target-sh.base, d.iv)
				}
			case dirSetTagFilter:
				if c.workerOf[d.target] == mine {
					nd := sh.node(d.target)
					nd.SetTag(d.tag)
					nd.SetFilter(d.iv)
					sh.router.Mir.SetFilter(d.target-sh.base, d.iv)
				}
			case dirProbe:
				if c.workerOf[d.target] == mine {
					nd := sh.node(d.target)
					c.resp[d.target].report = wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()}
				}
			case dirCollect:
				for _, nd := range sh.router.ScanList(d.pred, sh.nodes) {
					if nd.Match(d.pred) {
						sh.out = append(sh.out, wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()})
					}
				}
			case dirExistRound:
				// Candidates are stable across one sweep's rounds (values
				// only move on Advance, which cannot interleave with a
				// running Sweep), so only round 0 routes the predicate.
				if d.round == 0 {
					sh.sweepScan = sh.router.ScanList(d.pred, sh.nodes)
				}
				for _, nd := range sh.sweepScan {
					if nd.Match(d.pred) && nd.ExistenceSend(d.round, c.n) {
						sh.out = append(sh.out, wire.Report{ID: nd.ID, Value: nd.Value, Dir: nd.Violation()})
					}
				}
			case dirMaxInit:
				for _, nd := range sh.nodes {
					nd.MaxFindInit(d.value, d.reset)
				}
			case dirMaxRaise:
				for _, nd := range sh.nodes {
					nd.MaxFindRaise(d.holder, d.best)
				}
			case dirMaxExclude:
				for _, nd := range sh.nodes {
					nd.MaxFindExclude(d.holder)
				}
			case dirSnapshot:
				for _, nd := range sh.nodes {
					r := &c.resp[nd.ID]
					r.value = nd.Value
					r.filt = nd.Filter
					r.tag = nd.Tag
				}
			case dirReset:
				// ChildSeed derivation is pure, so one root per shard
				// rewinds every node exactly as a per-node root would.
				root := rngx.New(d.seed)
				for _, nd := range sh.nodes {
					nd.Reset(root)
				}
				sh.router.Idx.Reset()
				sh.router.Mir.Reset()
			case dirStop:
				stop = true
			}
		}
		if c.remaining.Add(-1) == 0 {
			c.done <- struct{}{}
		}
		if stop {
			return
		}
	}
}

// push appends a directive to the pending batch and records which workers
// the next flush must wake.
func (c *Cluster) push(d directive) {
	if d.target == allNodes {
		c.allTouched = true
	} else if w := c.workerOf[d.target]; !c.allTouched && !c.touched[w] {
		c.touched[w] = true
		c.touchedIDs = append(c.touchedIDs, int(w))
	}
	c.pend = append(c.pend, d)
}

// flush delivers the pending batch to every touched worker in one signal
// each and blocks until all of them have executed it — the engine's barrier
// round. The server's writes to the batch happen-before the workers'
// reads (signal channel send/receive); every worker's response writes
// happen-before the server resumes (atomic countdown observed by the last
// worker, whose completion send the server receives).
func (c *Cluster) flush() {
	if len(c.pend) == 0 {
		return
	}
	if c.allTouched {
		c.remaining.Store(int64(c.m))
		for _, ch := range c.sig {
			ch <- struct{}{}
		}
	} else {
		c.remaining.Store(int64(len(c.touchedIDs)))
		for _, w := range c.touchedIDs {
			c.sig[w] <- struct{}{}
		}
	}
	<-c.done
	for _, w := range c.touchedIDs {
		c.touched[w] = false
	}
	c.touchedIDs = c.touchedIDs[:0]
	c.allTouched = false
	c.advPending = false
	c.pend = c.pend[:0]
	c.rules = c.rules[:0]
}

// Close stops all worker goroutines. Pending deferred directives are
// executed first; the cluster is unusable afterwards.
func (c *Cluster) Close() {
	if !c.alive {
		return
	}
	c.alive = false
	c.push(directive{kind: dirStop, target: allNodes})
	c.flush()
	c.wg.Wait()
}

// Reset implements cluster.Cluster: it rewinds the engine — every node, the
// shard indexes, the counters, and the server RNG — to the state
// New(n, seed) constructs, keeping the workers, batch, and report buffers.
// The directive is deferred like any other non-response mutation. A reset
// engine replays a fresh engine's run bit for bit (asserted by the Reset
// property tests, including the sharded configurations).
func (c *Cluster) Reset(seed uint64) {
	root := rngx.New(seed)
	c.ctr.Reset()
	c.rng.Reseed(root.ChildSeed(serverRNG))
	c.maxV = 1
	c.push(directive{kind: dirReset, target: allNodes, seed: seed})
}

// N implements cluster.Cluster.
func (c *Cluster) N() int { return c.n }

// Counters implements cluster.Cluster.
func (c *Cluster) Counters() *metrics.Counters { return c.ctr }

// Rand implements cluster.Cluster.
func (c *Cluster) Rand() *rngx.Source { return c.rng }

func (c *Cluster) count(ch metrics.Channel, k wire.Kind) {
	c.ctr.Count(ch, k.String(), wire.MsgBits(k, c.n, c.maxV))
}

// Advance implements cluster.Inspector. The values are copied into the
// engine-owned batch and installed by the next flush; callers may reuse
// their slice immediately.
func (c *Cluster) Advance(values []int64) {
	if len(values) != c.n {
		panic(fmt.Sprintf("live: Advance with %d values for %d nodes", len(values), c.n))
	}
	for i, v := range values {
		if v < 0 || v > eps.MaxValue {
			panic(fmt.Sprintf("live: value %d for node %d out of range", v, i))
		}
		if v > c.maxV {
			c.maxV = v
		}
	}
	if c.advPending && c.pend[len(c.pend)-1].kind != dirAdvance {
		// Directives pushed since the pending Advance (MaxFindInit,
		// MaxFindRaise) read node values at execution time; flush so they
		// observe the earlier values, as call order promises. Coalescing
		// (below) is only safe when the pending Advance is still the last
		// directive — then nothing could have read the overwritten values.
		c.flush()
	}
	copy(c.advVals, values)
	if !c.advPending {
		c.advPending = true
		c.push(directive{kind: dirAdvance, target: allNodes})
	}
}

// EndStep implements cluster.Inspector.
func (c *Cluster) EndStep() { c.ctr.EndStep() }

// snapshot flushes a snapshot round; afterwards c.resp holds every node's
// (value, filter, tag) in id order.
func (c *Cluster) snapshot() {
	c.push(directive{kind: dirSnapshot, target: allNodes})
	c.flush()
}

// Values implements cluster.Inspector.
func (c *Cluster) Values() []int64 {
	return c.ValuesInto(make([]int64, 0, c.n))
}

// ValuesInto implements cluster.Inspector: one snapshot flush, then a copy
// out of the response slots into dst's reused capacity.
func (c *Cluster) ValuesInto(dst []int64) []int64 {
	c.snapshot()
	dst = dst[:0]
	for i := range c.resp {
		dst = append(dst, c.resp[i].value)
	}
	return dst
}

// Filters implements cluster.Inspector.
func (c *Cluster) Filters() []filter.Interval {
	return c.FiltersInto(make([]filter.Interval, 0, c.n))
}

// FiltersInto implements cluster.Inspector.
func (c *Cluster) FiltersInto(dst []filter.Interval) []filter.Interval {
	c.snapshot()
	dst = dst[:0]
	for i := range c.resp {
		dst = append(dst, c.resp[i].filt)
	}
	return dst
}

// Tags implements cluster.Inspector.
func (c *Cluster) Tags() []wire.Tag {
	c.snapshot()
	out := make([]wire.Tag, c.n)
	for i := range c.resp {
		out[i] = c.resp[i].tag
	}
	return out
}

// BroadcastRule implements cluster.Cluster. The rule is copied into the
// engine-owned batch, so the caller may mutate and reuse it immediately —
// the contract's "fully applied on return" holds observably because every
// read of node state flushes first.
func (c *Cluster) BroadcastRule(rule *wire.FilterRule) {
	c.count(metrics.Broadcast, wire.KindFilterRule)
	c.ctr.Rounds(1)
	c.rules = append(c.rules, *rule)
	c.push(directive{kind: dirApplyRule, target: allNodes, ruleIdx: len(c.rules) - 1})
}

// SetFilter implements cluster.Cluster.
func (c *Cluster) SetFilter(id int, iv filter.Interval) {
	c.count(metrics.ServerToNode, wire.KindSetFilter)
	c.push(directive{kind: dirSetFilter, target: id, iv: iv})
}

// SetTagFilter implements cluster.Cluster.
func (c *Cluster) SetTagFilter(id int, t wire.Tag, iv filter.Interval) {
	c.count(metrics.ServerToNode, wire.KindSetFilter)
	c.push(directive{kind: dirSetTagFilter, target: id, tag: t, iv: iv})
}

// Probe implements cluster.Cluster.
func (c *Cluster) Probe(id int) wire.Report {
	c.count(metrics.ServerToNode, wire.KindProbeRequest)
	c.count(metrics.NodeToServer, wire.KindProbeReply)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirProbe, target: id})
	c.flush()
	return c.resp[id].report
}

// Collect implements cluster.Cluster. Results alternate between two
// engine-owned buffers, honouring the Cluster contract that a Collect
// result survives exactly one further Collect. Workers route the scan
// through their shard's value index; the server concatenates the per-shard
// match lists in shard order (= id order), so gather cost is O(m + matches)
// rather than O(n).
func (c *Cluster) Collect(p wire.Pred) []wire.Report {
	c.count(metrics.Broadcast, wire.KindCollect)
	c.ctr.Rounds(1)
	if !vindex.Routable(p) {
		// Predicate-only decision, billed server-side so the count is
		// bit-identical to the lockstep engine's for equal call sequences.
		c.ctr.IndexFallback()
	}
	c.push(directive{kind: dirCollect, target: allNodes, pred: p})
	c.flush()
	out := c.collectBufs[c.collectIdx][:0]
	for _, sh := range c.shards {
		for _, rep := range sh.out {
			c.count(metrics.NodeToServer, wire.KindCollectReply)
			out = append(out, rep)
		}
	}
	c.collectBufs[c.collectIdx] = out
	c.collectIdx ^= 1
	return out
}

// Sweep implements cluster.Cluster: the EXISTENCE protocol of Lemma 3.1,
// one batched barrier per probabilistic round. The returned slice is backed
// by the engine-owned sweep buffer and recycled by the next Sweep.
func (c *Cluster) Sweep(p wire.Pred) []wire.Report {
	if !vindex.Routable(p) {
		// One fallback per sweep (the scan list is routed once and reused
		// across rounds), matching the lockstep engine's accounting.
		c.ctr.IndexFallback()
	}
	gamma := nodecore.ExistenceRounds(c.n)
	for r := 0; r <= gamma; r++ {
		c.ctr.Rounds(1)
		c.push(directive{kind: dirExistRound, target: allNodes, pred: p, round: r})
		c.flush()
		senders := c.sweepBuf[:0]
		for _, sh := range c.shards {
			for _, rep := range sh.out {
				c.count(metrics.NodeToServer, wire.KindExistenceReport)
				senders = append(senders, rep)
			}
		}
		c.sweepBuf = senders[:0]
		if len(senders) > 0 {
			c.count(metrics.Broadcast, wire.KindHalt)
			return senders
		}
	}
	return nil
}

// DetectViolation implements cluster.Cluster.
func (c *Cluster) DetectViolation() (wire.Report, bool) {
	senders := c.Sweep(wire.Violating())
	if len(senders) == 0 {
		return wire.Report{}, false
	}
	return senders[c.rng.Intn(len(senders))], true
}

// MaxFindInit implements cluster.Cluster.
func (c *Cluster) MaxFindInit(floor int64, reset bool) {
	c.count(metrics.Broadcast, wire.KindMaxFindInit)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirMaxInit, target: allNodes, value: floor, reset: reset})
}

// MaxFindRaise implements cluster.Cluster.
func (c *Cluster) MaxFindRaise(holder int, best int64) {
	c.count(metrics.Broadcast, wire.KindMaxFindRaise)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirMaxRaise, target: allNodes, holder: holder, best: best})
}

// MaxFindExclude implements cluster.Cluster.
func (c *Cluster) MaxFindExclude(id int) {
	c.count(metrics.Broadcast, wire.KindMaxFindExclude)
	c.ctr.Rounds(1)
	c.push(directive{kind: dirMaxExclude, target: allNodes, holder: id})
}
