// Package nodecore implements the node-local state and behaviour the
// lockstep engine hosts.
//
// A node owns: its current stream value, its assigned filter, a protocol tag
// (V1/V2/S1-style set membership, updated by server messages), and a
// max-find activation flag. All server-visible behaviour is driven through
// Apply* message handlers and the EXISTENCE send schedule, so node logic
// lives here and nowhere in the engine.
//
// Nodes are built for reuse: New allocates the node and its RNG stream
// once; Reset rewinds both in place to the state New would construct for a
// given root source, so engine Reset (trial reuse in the experiment
// harness) allocates nothing on the node side. Handlers never allocate —
// the engine's per-step zero-allocation budget rests on that.
//
// State-mutation contract: Observe and Reset are the ONLY operations that
// change Node.Value, and SetFilter, ApplyFilterRule, and Reset the only
// ones that change Node.Filter. The engine relies on this to keep its
// value-bucket index and filter-interval mirror (internal/vindex)
// consistent — it re-indexes a node exactly at those points — so any new
// mutation of Value or Filter must notify the owning engine's structures
// as well.
package nodecore

import (
	"math/bits"

	"topkmon/internal/filter"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// Node is the state of one distributed node.
type Node struct {
	ID     int
	Value  int64
	Filter filter.Interval
	Tag    wire.Tag

	// MFActive marks participation in the current max-find run.
	MFActive bool
	// MFExcluded marks a node already returned by a previous max-find run
	// of the same top-m computation; it sits out until a resetting init.
	MFExcluded bool

	// RNG drives the node's EXISTENCE coin flips.
	RNG *rngx.Source
}

// New returns a node with the all-admitting filter and its own child RNG.
func New(id int, seed *rngx.Source) *Node {
	return &Node{
		ID:     id,
		Filter: filter.All,
		Tag:    wire.TagNone,
		RNG:    seed.Child(uint64(id)),
	}
}

// Reset returns the node to the state New(nd.ID, root) would construct:
// value 0, the all-admitting filter, no tag, no max-find participation, and
// the RNG rewound to the child stream New would have derived from root. It
// reuses the node's Source, so engine Reset stays allocation-free on the
// node side.
func (nd *Node) Reset(root *rngx.Source) {
	nd.Value = 0
	nd.Filter = filter.All
	nd.Tag = wire.TagNone
	nd.MFActive = false
	nd.MFExcluded = false
	nd.RNG.Reseed(root.ChildSeed(uint64(nd.ID)))
}

// Observe sets the node's current value (the next stream element).
func (nd *Node) Observe(v int64) { nd.Value = v }

// Violation classifies the node's value against its filter.
func (nd *Node) Violation() filter.Direction { return nd.Filter.Violation(nd.Value) }

// Match evaluates a broadcastable predicate against node-local state.
func (nd *Node) Match(p wire.Pred) bool {
	switch p.Kind {
	case wire.PredViolating:
		return nd.Violation() != filter.DirNone
	case wire.PredAboveActive:
		return nd.MFActive && nd.Value > p.X
	case wire.PredInRange:
		return nd.Value >= p.X && nd.Value <= p.Y
	case wire.PredHasTag:
		return nd.Tag == p.Tag
	default:
		return false
	}
}

// ApplyFilterRule first retags the node per the rule, then derives its
// filter from its (possibly new) tag. Nodes whose tag the rule does not
// define keep their current filter.
func (nd *Node) ApplyFilterRule(r *wire.FilterRule) {
	nd.Tag, nd.Filter = r.Apply(nd.Tag, nd.Filter)
}

// SetFilter applies a unicast filter assignment.
func (nd *Node) SetFilter(iv filter.Interval) { nd.Filter = iv }

// SetTag applies a unicast tag change.
func (nd *Node) SetTag(t wire.Tag) { nd.Tag = t }

// MaxFindInit (broadcast) re-activates the node for a fresh max-find run
// when its value exceeds the announced floor; nodes at or below deactivate.
// With reset, prior exclusions (found maxima) are forgotten, starting a new
// top-m computation.
func (nd *Node) MaxFindInit(floor int64, reset bool) {
	if reset {
		nd.MFExcluded = false
	}
	nd.MFActive = !nd.MFExcluded && nd.Value > floor
}

// MaxFindRaise (broadcast) announces a new best (holder, value); the holder
// and every node not exceeding the value drop out.
func (nd *Node) MaxFindRaise(holder int, best int64) {
	if nd.ID == holder || nd.Value <= best {
		nd.MFActive = false
	}
}

// MaxFindExclude (broadcast) permanently benches the named node until the
// next resetting init; used to find the (j+1)-st largest after the j-th.
func (nd *Node) MaxFindExclude(id int) {
	if nd.ID == id {
		nd.MFExcluded = true
		nd.MFActive = false
	}
}

// ExistenceRounds returns γ = ⌈log₂ n⌉, the number of probabilistic rounds
// of the EXISTENCE protocol (Lemma 3.1). Round γ sends with probability 1.
func ExistenceRounds(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// ExistenceSend decides whether a node holding a 1 sends in round r of the
// EXISTENCE protocol over n nodes: independently with probability
// p_r = 2^r / n, and with certainty in the final round.
func (nd *Node) ExistenceSend(r, n int) bool {
	if r >= ExistenceRounds(n) {
		return true
	}
	p := float64(uint64(1)<<uint(r)) / float64(n)
	return nd.RNG.Bool(p)
}
