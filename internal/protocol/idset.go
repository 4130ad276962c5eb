package protocol

import (
	"iter"
	"math/bits"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// idSet is a set of node ids 0..n−1: a bitset that keeps its own count.
// It holds the partition V1/V2/V3 and the subsets S1, S2, S′1, S′2 of
// Section 5.2. Iteration runs in ascending id order, so the protocols'
// per-node unicasts and outputs come out in id order without sorting.
type idSet struct {
	words []uint64
	count int
}

func newIDSet(n int) idSet { return idSet{words: make([]uint64, (n+63)/64)} }

func (s *idSet) has(i int) bool { return s.words[i>>6]&(1<<(i&63)) != 0 }

func (s *idSet) len() int { return s.count }

func (s *idSet) add(i int) {
	if !s.has(i) {
		s.words[i>>6] |= 1 << (i & 63)
		s.count++
	}
}

func (s *idSet) del(i int) {
	if s.has(i) {
		s.words[i>>6] &^= 1 << (i & 63)
		s.count--
	}
}

func (s *idSet) clear() {
	clear(s.words)
	s.count = 0
}

// all yields the members in ascending id order.
func (s *idSet) all() iter.Seq[int] {
	return func(yield func(int) bool) {
		for w, word := range s.words {
			for ; word != 0; word &= word - 1 {
				if !yield(w<<6 | bits.TrailingZeros64(word)) {
					return
				}
			}
		}
	}
}

// appendTo appends the members to dst in ascending id order.
func (s *idSet) appendTo(dst []int) []int {
	for i := range s.all() {
		dst = append(dst, i)
	}
	return dst
}

// intersects reports whether s and o share a member.
func (s *idSet) intersects(o *idSet) bool {
	for w, word := range s.words {
		if word&o.words[w] != 0 {
			return true
		}
	}
	return false
}

// copy makes s equal to o.
func (s *idSet) copy(o *idSet) {
	copy(s.words, o.words)
	s.count = o.count
}

// andNot makes s the members of a that are not in b (a or b may be s).
func (s *idSet) andNot(a, b *idSet) {
	s.count = 0
	for w := range s.words {
		s.words[w] = a.words[w] &^ b.words[w]
		s.count += bits.OnesCount64(s.words[w])
	}
}

// partition is the V1/V2/V3 split of the node ids that DENSEPROTOCOL and
// the Corollary 5.9 monitor open every epoch with.
type partition struct {
	v1, v2, v3 idSet
	reset      *wire.FilterRule // the opening broadcast, reused
}

func newPartition(n int) partition {
	return partition{v1: newIDSet(n), v2: newIDSet(n), v3: newIDSet(n), reset: resetAllTags(wire.TagV3)}
}

// open classifies the nodes by two Collects — V1 above hi, V2 in [lo, hi],
// V3 the rest — and reports whether the premise |V1| ≤ k ≤ |V1|+|V2|
// holds. If it does, one broadcast resets every node to V3 with filter
// [0, u], and V1 and V2 members get their tags with filters [l, ∞] and
// [l, u] by unicast in id order (≤ k + σ messages).
func (p *partition) open(c cluster.Cluster, k int, lo, hi, l, u int64) bool {
	high := c.Collect(wire.InRange(hi+1, filter.Inf))
	mid := c.Collect(wire.InRange(lo, hi))
	p.v1.clear()
	p.v2.clear()
	p.v3.clear()
	for _, r := range high {
		p.v1.add(r.ID)
	}
	for _, r := range mid {
		p.v2.add(r.ID)
	}
	for i := range c.N() {
		if !p.v1.has(i) && !p.v2.has(i) {
			p.v3.add(i)
		}
	}
	if p.v1.len() > k || p.v1.len()+p.v2.len() < k {
		return false
	}
	c.BroadcastRule(p.reset.With(wire.TagV3, filter.AtMost(u)))
	for i := range p.v1.all() {
		c.SetTagFilter(i, wire.TagV1, filter.AtLeast(l))
	}
	for i := range p.v2.all() {
		c.SetTagFilter(i, wire.TagV2, filter.Make(l, u))
	}
	return true
}
