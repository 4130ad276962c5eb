package protocol

import (
	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/idset"
	"topkmon/internal/wire"
)

// partition is the V1/V2/V3 split of the node ids that DENSEPROTOCOL and
// the Corollary 5.9 monitor open every epoch with.
type partition struct {
	v1, v2, v3 idset.Set
	reset      *wire.FilterRule // the opening broadcast, reused
}

func newPartition(n int) partition {
	return partition{v1: idset.New(n), v2: idset.New(n), v3: idset.New(n), reset: resetAllTags(wire.TagV3)}
}

// open classifies the nodes by two Collects — V1 above hi, V2 in [lo, hi],
// V3 the rest — and reports whether the premise |V1| ≤ k ≤ |V1|+|V2|
// holds. If it does, one broadcast resets every node to V3 with filter
// [0, u], and V1 and V2 members get their tags with filters [l, ∞] and
// [l, u] by unicast in id order (≤ k + σ messages).
func (p *partition) open(c cluster.Cluster, k int, lo, hi, l, u int64) bool {
	high := c.Collect(wire.InRange(hi+1, filter.Inf))
	mid := c.Collect(wire.InRange(lo, hi))
	p.v1.Clear()
	p.v2.Clear()
	p.v3.Clear()
	for _, r := range high {
		p.v1.Add(r.ID)
	}
	for _, r := range mid {
		p.v2.Add(r.ID)
	}
	for i := range c.N() {
		if !p.v1.Has(i) && !p.v2.Has(i) {
			p.v3.Add(i)
		}
	}
	if p.v1.Len() > k || p.v1.Len()+p.v2.Len() < k {
		return false
	}
	c.BroadcastRule(p.reset.With(wire.TagV3, filter.AtMost(u)))
	for i := range p.v1.All() {
		c.SetTagFilter(i, wire.TagV1, filter.AtLeast(l))
	}
	for i := range p.v2.All() {
		c.SetTagFilter(i, wire.TagV2, filter.Make(l, u))
	}
	return true
}
