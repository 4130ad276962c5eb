// Package vindex maintains a value-bucketed index over node ids so that the
// engine's predicate-routed primitives (Sweep, Collect) visit only the nodes
// whose values can possibly match, instead of scanning all n nodes per
// round — the step cost then tracks the number of plausible matchers (σ in
// the paper's σ-dependent bounds), not n. The value-ordered organisation
// follows the companion top-k-position work (arXiv:1410.7912) and the
// communication-efficient top-k structures of arXiv:1709.07259, which touch
// only O(σ + polylog) candidates per operation.
//
// # Layout
//
// Buckets are power-of-two value classes: bucket 0 holds value 0 and bucket
// b ≥ 1 holds values in [2^(b-1), 2^b - 1], so there are O(log Δ) buckets
// over the supported domain [0, eps.MaxValue]. The index keeps every node id
// in one flat array grouped by ascending bucket (byBucket) with a boundary
// offset per bucket (start) and, per node, its current bucket and position.
// All four arrays are allocated once in New and never grow:
//
//   - Update moves a node between adjacent buckets with one swap and a
//     boundary shift, so a value change costs O(|bucket distance|) ≤
//     O(log Δ) writes and the steady state allocates nothing.
//   - Span returns the candidate ids for a value interval as one zero-copy
//     subslice of byBucket, because the buckets intersecting [lo, hi] are
//     contiguous in the grouped array.
//
// A bucket is a coarsening: Span is a superset of the true matchers (the
// boundary buckets can hold values just outside [lo, hi]), so callers must
// still evaluate the predicate per candidate. Correctness only needs the
// necessary-condition direction — every node with a value in [lo, hi] IS in
// the span — which is what makes index-routed sweeps byte-identical to full
// scans (asserted by the lockstep index property tests).
//
// # Violation predicate
//
// The violation predicate (PredViolating) has no value bounds — a match
// depends on each node's assigned filter — so bucket routing cannot serve
// it. The lockstep engine, which owns the node values and filters, keeps
// the exact set of violating nodes instead and resolves violation sweeps
// from it; Routable counts it as routable. The only remaining full-scan
// fallbacks are tag predicates and domain-covering intervals.
package vindex

import (
	"math/bits"
	"slices"

	"topkmon/internal/eps"
	"topkmon/internal/wire"
)

// numBuckets is the number of power-of-two value classes needed for the
// supported domain [0, eps.MaxValue]: bucket 0 plus one per magnitude.
var numBuckets = bits.Len64(uint64(eps.MaxValue)) + 1

// BucketOf returns the bucket of value v: 0 for v ≤ 0, otherwise the number
// of significant bits of v (so bucket b holds [2^(b-1), 2^b - 1]), clamped
// to the last bucket for values beyond eps.MaxValue — those only appear as
// query endpoints, never as indexed values (the engine rejects them on
// Advance).
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// FullRange reports whether the value interval [lo, hi] covers the entire
// supported domain, i.e. routing through the index would visit every node
// anyway and the caller should use its plain full scan instead (the cheaper
// of the two when nothing can be pruned).
func FullRange(lo, hi int64) bool {
	return lo <= 0 && hi >= eps.MaxValue
}

// Routable reports whether predicate p can be routed through the engine's
// index structures: the violation predicate through the engine's violator
// set, interval predicates through the value-bucket Index when their
// Bounds do not cover the whole domain. The negation is exactly the
// full-scan fallback the engine counts through
// metrics.Counters.IndexFallback — tag predicates (the only remaining
// state-decided matches) and domain-covering intervals. The decision
// depends on the predicate alone, never on node state.
func Routable(p wire.Pred) bool {
	if p.Kind == wire.PredViolating {
		return true
	}
	lo, hi, ok := p.Bounds()
	return ok && !FullRange(lo, hi)
}

// Index is a value-bucket index over the node ids [0, n). The zero value
// is not usable; construct with New.
type Index struct {
	// byBucket holds every indexed id exactly once, grouped by ascending
	// bucket; start[b] is the offset of bucket b's segment, so bucket b is
	// byBucket[start[b]:start[b+1]] (possibly empty).
	byBucket []int32
	start    []int32

	// pos[id] is the id's position in byBucket; bkt[id] its current
	// bucket.
	pos []int32
	bkt []uint8
}

// New returns an index over the ids [0, n), all with value 0 — the state
// engine construction and Reset leave every node in.
func New(n int) *Index {
	ix := &Index{
		byBucket: make([]int32, n),
		start:    make([]int32, numBuckets+1),
		pos:      make([]int32, n),
		bkt:      make([]uint8, n),
	}
	ix.Reset()
	return ix
}

// Reset rebuckets every indexed node to value 0 (bucket 0), matching the
// node state after an engine Reset. It reuses the arrays and allocates
// nothing.
func (ix *Index) Reset() {
	for i := range ix.byBucket {
		ix.byBucket[i] = int32(i)
		ix.pos[i] = int32(i)
		ix.bkt[i] = 0
	}
	ix.start[0] = 0
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] = int32(len(ix.byBucket))
	}
}

// Update records that node id now holds value v, moving it between buckets
// when its magnitude class changed. The move walks adjacent bucket
// boundaries — one swap plus one boundary shift each — so it costs
// O(|bucket distance|) and never allocates.
func (ix *Index) Update(id int, v int64) {
	nb := uint8(BucketOf(v))
	ob := ix.bkt[id]
	if nb == ob {
		return
	}
	ix.bkt[id] = nb
	p := ix.pos[id]
	for b := ob; b < nb; b++ {
		// Swap to the end of bucket b, then pull b+1's boundary back over
		// the id so it becomes the first element of bucket b+1.
		last := ix.start[b+1] - 1
		ix.swap(p, last)
		ix.start[b+1] = last
		p = last
	}
	for b := ob; b > nb; b-- {
		// Symmetric: swap to the front of bucket b, push the boundary
		// forward, and the id becomes the last element of bucket b-1.
		first := ix.start[b]
		ix.swap(p, first)
		ix.start[b] = first + 1
		p = first
	}
}

func (ix *Index) swap(a, b int32) {
	if a == b {
		return
	}
	ia, ib := ix.byBucket[a], ix.byBucket[b]
	ix.byBucket[a], ix.byBucket[b] = ib, ia
	ix.pos[ia], ix.pos[ib] = b, a
}

// Span returns the ids of every indexed node whose value could lie in
// [lo, hi]: the contents of the buckets intersecting the interval, in no
// particular order. The result is a zero-copy view into the index — valid
// only until the next Update or Reset, and callers must not modify it. An
// empty interval (lo > hi) yields nil.
func (ix *Index) Span(lo, hi int64) []int32 {
	if lo > hi {
		return nil
	}
	bLo, bHi := BucketOf(lo), BucketOf(hi)
	return ix.byBucket[ix.start[bLo]:ix.start[bHi+1]]
}

// AppendSorted appends Span(lo, hi) to dst in ascending id order, reusing
// dst's capacity — the form the engine uses to preserve its id-ordered
// report contract. Sorting costs O(c log c) in the candidate count c, which
// the full-range fallback (see FullRange) keeps below the O(n) scan it
// replaces; slices.Sort on []int32 allocates nothing.
func (ix *Index) AppendSorted(dst []int32, lo, hi int64) []int32 {
	n := len(dst)
	dst = append(dst, ix.Span(lo, hi)...)
	slices.Sort(dst[n:])
	return dst
}

// Len returns the number of indexed ids.
func (ix *Index) Len() int { return len(ix.byBucket) }
