package protocol

import (
	"fmt"

	"topkmon/internal/filter"
	"topkmon/internal/idset"
	"topkmon/internal/wire"
)

// subState is the nested SUBPROTOCOL of Section 5.2, entered when some V2
// node has been observed both above u_r and below ℓ_r (it sits in S1∩S2, so
// DENSEPROTOCOL cannot decide whether it belongs to the optimal output).
// SUBPROTOCOL bisects L′ ⊆ [(1-ε)z, ℓ_r] — the lower part of the guess
// interval — until it either halves the outer L correctly or moves one node
// out of V2 into V1 or V3 (Lemma 5.6).
type subState struct {
	l  filter.Interval // L′
	s1 idset.Set       // S′1 (initialised to S1)
	s2 idset.Set       // S′2 (initialised to ∅)

	initiator int
	// lastDown is the last S′1∩S′2 node that violated downwards; it is the
	// node moved to V3 when L′ empties on an upper-half move.
	lastDown int
}

// lr is ℓ′_{r′}, the midpoint of L′.
func (s *subState) lr() int64 { return s.l.Mid() }

// ur is u′_{r′} = ⌊ℓ′_{r′}/(1-ε)⌋.
func (s *subState) ur(d *Dense) int64 { return d.e.GrowFloor(s.l.Mid()) }

// startSub opens SUBPROTOCOL for the S1∩S2 node initiator: L′ is the part
// of L at or below ℓ_r, S′1 copies S1, S′2 starts empty. One broadcast
// retags the disbanded S′2 view and installs the round-0 filters.
func (d *Dense) startSub(initiator int) {
	d.SubCalls++
	hi := d.lr()
	if hi > d.l.Hi {
		hi = d.l.Hi
	}
	s := &d.subStore
	s.l = filter.Make(d.l.Lo, hi)
	s.s1.Copy(&d.s1)
	s.s2.Clear()
	s.initiator = initiator
	s.lastDown = -1
	d.sub = s
	rule := d.freshRoundRule().
		WithRetag(wire.TagV2S2, wire.TagV2).
		WithRetag(wire.TagV2S12, wire.TagV2S1)
	d.subRoundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// subRoundFilters installs the SUBPROTOCOL step-2 filter table. V1 keeps its
// DENSE filter ("F′_i := F_i").
func (d *Dense) subRoundFilters(rule *wire.FilterRule) {
	s := d.sub
	lr := d.lr()
	slr, sur := s.lr(), s.ur(d)
	rule.With(wire.TagV2S1, filter.Make(lr, d.zUpper)).
		With(wire.TagV2S12, filter.Make(slr, d.zUpper)).
		With(wire.TagV2, filter.Make(lr, sur)).
		With(wire.TagV2S2, filter.Make(d.zLowC, sur)).
		With(wire.TagV3, filter.AtMost(sur))
}

// handleSub is the step-3 case analysis of SUBPROTOCOL.
func (d *Dense) handleSub(rep wire.Report) {
	gen := d.gen
	s := d.sub
	i := rep.ID
	switch {
	case d.v1.Has(i):
		// Case a: a V1 node fell below ℓ_r ⇒ terminate; the outer L
		// moves to its lower half.
		d.subEnd()
		d.halveLower()
	case d.v3.Has(i):
		// Case a′: a V3 node rose above u′ ⇒ L′ → upper half, S′1 := S1.
		d.subUpperHalf()
	case s.s1.Has(i) && s.s2.Has(i):
		if rep.Dir == filter.DirUp {
			// Case d.1: v > z/(1-ε) ⇒ i joins V1 and SUB terminates.
			d.subEnd()
			d.moveToV1(i)
		} else {
			// Case d.2: v < ℓ′ ⇒ L′ → lower half, S′2 := ∅.
			s.lastDown = i
			d.subLowerHalf(i)
		}
	case s.s1.Has(i):
		if rep.Dir == filter.DirUp {
			// Case c.1: v > z/(1-ε) ⇒ move i to V1 (SUB continues).
			d.moveToV1(i)
		} else {
			// Case c.2: i joins S′2, entering S′1∩S′2.
			s.s2.Add(i)
			d.c.SetTagFilter(i, wire.TagV2S12, filter.Make(s.lr(), d.zUpper))
			d.refreshOutput()
		}
	case s.s2.Has(i):
		if rep.Dir == filter.DirDown {
			// Case c′.1: v < (1-ε)z ⇒ move i to V3 (SUB continues).
			d.moveToV3(i)
		} else {
			// Case c′.2: i joins S′1, entering S′1∩S′2.
			s.s1.Add(i)
			d.c.SetTagFilter(i, wire.TagV2S12, filter.Make(s.lr(), d.zUpper))
			d.refreshOutput()
		}
	case d.v2.Has(i):
		if rep.Dir == filter.DirUp {
			// Case b: v > u′.
			if d.v1.Len()+s.s1.Len()+1 > d.k {
				// b.1: more than k nodes certified above.
				d.subUpperHalf()
			} else {
				// b.2: record i in S′1.
				s.s1.Add(i)
				d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
				d.refreshOutput()
			}
		} else {
			// Case b′: v < ℓ_r.
			if d.v3.Len()+s.s2.Len()+1 > d.c.N()-d.k {
				// b′.1: terminate; outer L → lower half.
				d.subEnd()
				d.halveLower()
			} else {
				// b′.2: record i in S′2.
				s.s2.Add(i)
				d.c.SetTagFilter(i, wire.TagV2S2, filter.Make(d.zLowC, s.ur(d)))
				d.refreshOutput()
			}
		}
	default:
		panic(fmt.Sprintf("protocol: sub violation from unclassified node %d", i))
	}
	if d.gen != gen || !d.active {
		return
	}
	d.checkSubTopKSwitch()
	if d.gen != gen || !d.active {
		return
	}
	d.maybeReenterSub()
}

// subUpperHalf implements cases a′ and b.1: L′ → upper half and S′1 := S1.
// If L′ empties, SUB terminates moving the last S′1∩S′2 down-violator (or
// the initiator) to V3 — it observed a value below every surviving ℓ*
// candidate, so it cannot be in F* (Lemma 5.6).
func (d *Dense) subUpperHalf() {
	s := d.sub
	s.l = s.l.UpperHalf()
	// Reset S′1 to S1: nodes recorded above an older, lower u′ lose that
	// certification (their tag reverts per their S′2 status).
	for i := range s.s1.All() {
		if d.s1.Has(i) {
			continue
		}
		if s.s2.Has(i) {
			d.c.SetTagFilter(i, wire.TagV2S2, filter.Make(d.zLowC, s.ur(d)))
		} else {
			d.c.SetTagFilter(i, wire.TagV2, filter.Make(d.lr(), s.ur(d)))
		}
	}
	s.s1.Copy(&d.s1)
	if s.l.Empty() {
		victim := s.lastDown
		if victim < 0 || !d.v2.Has(victim) {
			victim = s.initiator
		}
		d.subEnd()
		if d.v2.Has(victim) {
			d.moveToV3(victim)
		} else {
			d.refreshOutput()
		}
		return
	}
	rule := d.freshRoundRule()
	d.subRoundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// subLowerHalf implements case d.2: L′ → lower half and S′2 := ∅. If L′
// empties, SUB terminates moving the violator to V3.
func (d *Dense) subLowerHalf(violator int) {
	s := d.sub
	s.l = s.l.LowerHalf()
	if s.l.Empty() {
		// Terminate before disbanding S′2: subEnd diffs the primed sets
		// against the DENSE sets to restore tags, so they must still
		// describe the tags physically on the nodes.
		d.subEnd()
		if d.v2.Has(violator) {
			d.moveToV3(violator)
		} else {
			d.refreshOutput()
		}
		return
	}
	s.s2.Clear()
	rule := d.freshRoundRule().
		WithRetag(wire.TagV2S2, wire.TagV2).
		WithRetag(wire.TagV2S12, wire.TagV2S1)
	d.subRoundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// subEnd closes SUBPROTOCOL: it restores every V2 node's tag to its
// DENSE-level classification (unicasts for the differing ones) and
// rebroadcasts the DENSE round filters so V3/V2 filters widen back from u′
// to u_r.
func (d *Dense) subEnd() {
	s := d.sub
	d.sub = nil
	for i := range d.v2.All() {
		cur := classTag(s.s1.Has(i), s.s2.Has(i))
		want := classTag(d.s1.Has(i), d.s2.Has(i))
		if cur != want {
			d.c.SetTagFilter(i, want, d.denseFilterFor(want))
		}
	}
	rule := d.freshRoundRule()
	d.roundFilters(rule)
	d.c.BroadcastRule(rule)
}

// classTag maps S1/S2 membership to the node tag.
func classTag(inS1, inS2 bool) wire.Tag {
	switch {
	case inS1 && inS2:
		return wire.TagV2S12
	case inS1:
		return wire.TagV2S1
	case inS2:
		return wire.TagV2S2
	default:
		return wire.TagV2
	}
}

// denseFilterFor returns the DENSE step-2 filter for a tag. S1∩S2 nodes
// have no DENSE filter — SUBPROTOCOL is re-entered for them immediately —
// so they transiently hold the widest neighborhood interval.
func (d *Dense) denseFilterFor(t wire.Tag) filter.Interval {
	lr, ur := d.lr(), d.ur()
	switch t {
	case wire.TagV1:
		return filter.AtLeast(lr)
	case wire.TagV2S1:
		return filter.Make(lr, d.zUpper)
	case wire.TagV2S2:
		return filter.Make(d.zLowC, ur)
	case wire.TagV2S12:
		return filter.Make(d.zLowC, d.zUpper)
	case wire.TagV3:
		return filter.AtMost(ur)
	default:
		return filter.Make(lr, ur)
	}
}

// checkSubTopKSwitch is SUBPROTOCOL's case e, identical in spirit to the
// DENSE case (d) check but over the primed sets.
func (d *Dense) checkSubTopKSwitch() {
	s := d.sub
	if s == nil {
		return
	}
	if !s.s1.Intersects(&s.s2) && d.v1.Len()+s.s1.Len() == d.k && d.v3.Len()+s.s2.Len() == d.c.N()-d.k {
		d.subEnd()
		d.switchTopK()
	}
}

// maybeReenterSub re-invokes SUBPROTOCOL while an S1∩S2 node remains
// unresolved at the DENSE level (DESIGN.md interpretation 9): every SUB run
// either halves L (disbanding one S-side, emptying the intersection) or
// moves a node out of V2, so re-entry terminates.
func (d *Dense) maybeReenterSub() {
	if !d.active || d.sub != nil {
		return
	}
	// Re-enter for the smallest-id unresolved S1∩S2 node.
	for i := range d.s1.All() {
		if d.s2.Has(i) {
			d.startSub(i)
			return
		}
	}
}
