package protocol

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/idset"
	"topkmon/internal/wire"
)

// HalfEps is the Corollary 5.9 monitor: an ε-Top-k algorithm that is
// O(σ + k log n + log log Δ + log 1/ε)-competitive against an offline
// optimum restricted to the smaller error ε′ ≤ ε/2.
//
// It simulates only the first round of DENSEPROTOCOL with widened
// admission: nodes above (1-ε/2)z/(1-ε) go straight to V1, nodes below
// (1-ε/2)z straight to V3, and any V2 violation moves the node immediately
// (no S-sets, no SUBPROTOCOL). A violation by a settled V1/V3 node — or V1
// overflowing k, or V1∪V2 starving below k — terminates the epoch, at which
// point the ε/2-restricted optimum provably communicated.
type HalfEps struct {
	c cluster.Cluster
	k int
	e eps.Eps // the online error ε; the adversary is held to ε/2

	topk    *TopKProto
	inTopK  bool
	epochs  int64
	started bool

	z      int64
	l0, u0 int64 // the round-0 thresholds (1-ε/2)z and (1-ε/2)z/(1-ε)

	partition
	outSet idset.Set
	out    []int
}

// NewHalfEps returns the Corollary 5.9 monitor.
func NewHalfEps(c cluster.Cluster, k int, e eps.Eps) *HalfEps {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: HalfEps needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	if e.IsZero() {
		panic("protocol: HalfEps needs ε > 0")
	}
	h := &HalfEps{c: c, k: k, e: e, partition: newPartition(c.N()), outSet: idset.New(c.N())}
	h.topk = NewTopKProto(c, k, e)
	h.topk.OnEpochEnd = h.startEpoch
	return h
}

// Name implements Monitor.
func (h *HalfEps) Name() string { return "half-eps" }

// Epochs implements Monitor.
func (h *HalfEps) Epochs() int64 { return h.epochs + h.topk.Epochs() }

// Output implements Monitor.
func (h *HalfEps) Output() []int {
	if h.inTopK {
		return h.topk.Output()
	}
	return h.out
}

// Start implements Monitor.
func (h *HalfEps) Start() { h.startEpoch() }

func (h *HalfEps) startEpoch() {
	reps := TopM(h.c, h.k+1)
	vk, vk1 := reps[h.k-1].Value, reps[h.k].Value
	if h.e.ClearlyBelow(vk1, vk) {
		h.inTopK = true
		h.topk.StartWithProbe(reps)
		return
	}
	h.inTopK = false
	h.epochs++
	h.z = vk

	// Round-0 thresholds with exact rational arithmetic: ℓ₀ is the
	// midpoint (1-ε/2)z of [(1-ε)z, z]; u₀ = (1-ε/2)z/(1-ε). With
	// ε = p/q: ℓ₀ = ⌈z(2q-p)/(2q)⌉ (so v < ℓ₀ ⟺ v < (1-ε/2)z exactly for
	// integers) and u₀ = ⌊z(2q-p)/(2(q-p))⌋ (so v > u₀ ⟺ v above the V1
	// admission threshold exactly; DESIGN.md interpretation 10).
	half := h.e.Half()
	h.l0 = half.ShrinkCeil(h.z)
	p, q := h.e.Num, h.e.Den
	h.u0 = (h.z * (2*q - p)) / (2 * (q - p))

	if !h.open(h.c, h.k, h.l0, h.u0, h.l0, h.u0) {
		h.startEpoch()
		return
	}
	if h.v1.Len() == h.k && h.v3.Len() == h.c.N()-h.k {
		h.inTopK = true
		h.topk.StartWithProbe(TopM(h.c, h.k+1))
		return
	}
	h.refreshOutput()
}

// refreshOutput sets the output to V1 plus the smallest-id V2 nodes.
func (h *HalfEps) refreshOutput() {
	h.outSet.Copy(&h.v1)
	for i := range h.v2.All() {
		if h.outSet.Len() == h.k {
			break
		}
		h.outSet.Add(i)
	}
	h.out = h.outSet.AppendTo(h.out[:0])
}

// HandleStep implements Monitor.
func (h *HalfEps) HandleStep() {
	drainViolations(h.c, h.handle)
}

func (h *HalfEps) handle(rep wire.Report) {
	if h.inTopK {
		h.topk.Handle(rep)
		return
	}
	i := rep.ID
	switch {
	case h.v1.Has(i) || h.v3.Has(i):
		// A settled node left its side: the ε/2-optimum communicated.
		h.startEpoch()
	case h.v2.Has(i) && rep.Dir == filter.DirUp:
		h.v2.Del(i)
		h.v1.Add(i)
		h.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(h.l0))
		h.afterMove()
	case h.v2.Has(i):
		h.v2.Del(i)
		h.v3.Add(i)
		h.c.SetTagFilter(i, wire.TagV3, filter.AtMost(h.u0))
		h.afterMove()
	default:
		panic(fmt.Sprintf("protocol: half-eps violation from unclassified node %d", i))
	}
}

func (h *HalfEps) afterMove() {
	if h.v1.Len() > h.k || h.v1.Len()+h.v2.Len() < h.k {
		h.startEpoch()
		return
	}
	if h.v1.Len() == h.k && h.v3.Len() == h.c.N()-h.k {
		h.inTopK = true
		h.topk.StartWithProbe(TopM(h.c, h.k+1))
		return
	}
	h.refreshOutput()
}
