package protocol

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/idset"
	"topkmon/internal/wire"
)

// Dense is the DENSEPROTOCOL of Section 5.2, the main technical
// contribution: an ε-Top-k monitor competitive against an offline optimum
// that may itself use the error ε. It maintains a partition of the nodes —
// V1 (must be in any optimal output), V3 (cannot be), V2 (undecided, the
// dense ε-neighborhood of the reference value z) — and a guess interval
// L ⊆ [(1-ε)z, z] containing the lower endpoint ℓ* of the optimum's upper
// filter. Rounds halve L while the sets S1/S2 record V2 nodes observed above
// u_r / below ℓ_r; a node observed on both sides triggers the nested
// SUBPROTOCOL (subproto.go). When L empties, no feasible ℓ* remains, so the
// offline optimum communicated (Lemma 5.7) and the epoch ends.
//
// Dense runs under a controller (Approx, Theorem 5.8) that decides per epoch
// between Dense and TopKProto; the OnEpochEnd and OnSwitchTopK callbacks
// hand control back.
type Dense struct {
	c cluster.Cluster
	k int
	e eps.Eps

	// Reference value and derived exact thresholds.
	z      int64
	zUpper int64 // ⌊z/(1-ε)⌋: v > zUpper ⟺ v clearly above z
	zLowC  int64 // ⌈(1-ε)z⌉:  v < zLowC  ⟺ v clearly below z

	l filter.Interval // L_r, the guess interval for ℓ*

	partition           // V1, V2, V3
	s1, s2    idset.Set // subsets of V2

	sub *subState // non-nil while SUBPROTOCOL runs

	// Preamble state (z not yet pinned; Section 5.2's opening move when
	// the k-th and (k+1)-st values differ).
	inPreamble   bool
	preVK, preV1 int64

	out    []int
	epochs int64

	// active is true between StartWithProbe and epoch end / mode switch;
	// gen increments per epoch. Handlers use both to detect re-entrant
	// restarts triggered by their own callbacks.
	active bool
	gen    int64

	// OnEpochEnd is invoked when the epoch terminates (L empty or the
	// dense premise broke); the controller restarts. Required.
	OnEpochEnd func()
	// OnSwitchTopK is invoked when all of V2 is classified (case (d)):
	// the unique-output regime applies and TOP-K-PROTOCOL takes over.
	// Required.
	OnSwitchTopK func()

	// SubCalls counts SUBPROTOCOL invocations (Lemma 5.3's factor).
	SubCalls int64
	// Halvings counts L halvings across the epoch history.
	Halvings int64

	rules ruleScratch
	// Reusable working memory for the per-violation bookkeeping: the
	// output recomputation sets and buffer, the round-broadcast rule, and
	// the persistent SUBPROTOCOL state.
	fill, outSet idset.Set
	outBuf       []int
	roundRule    *wire.FilterRule
	subStore     subState
}

// NewDense returns the Section 5.2 monitor core.
func NewDense(c cluster.Cluster, k int, e eps.Eps) *Dense {
	if k < 1 || k >= c.N() {
		panic(fmt.Sprintf("protocol: Dense needs 1 ≤ k < n, got k=%d n=%d", k, c.N()))
	}
	if e.IsZero() {
		panic("protocol: Dense needs ε > 0; use ExactMid for the exact problem")
	}
	n := c.N()
	return &Dense{
		c: c, k: k, e: e,
		partition: newPartition(n),
		s1:        idset.New(n), s2: idset.New(n),
		fill: idset.New(n), outSet: idset.New(n),
		subStore: subState{s1: idset.New(n), s2: idset.New(n)},
	}
}

// Name implements Monitor.
func (d *Dense) Name() string { return "dense-protocol" }

// Epochs implements Monitor.
func (d *Dense) Epochs() int64 { return d.epochs }

// InSub reports whether SUBPROTOCOL is currently running (observability for
// tests and diagnostics).
func (d *Dense) InSub() bool { return d.sub != nil }

// Output implements Monitor.
func (d *Dense) Output() []int { return d.out }

// Start implements Monitor (standalone use; controllers call
// StartWithProbe).
func (d *Dense) Start() {
	d.StartWithProbe(TopM(d.c, d.k+1))
}

// StartWithProbe begins an epoch from a freshly probed top-(k+1) list.
// If the k-th and (k+1)-st values coincide, z is pinned immediately;
// otherwise the preamble filters F1 = [v_{k+1}, ∞], F2 = [0, v_k] hold until
// the first violation pins z (Section 5.2's opening; DESIGN.md
// interpretation 6).
func (d *Dense) StartWithProbe(reps []wire.Report) {
	d.epochs++
	d.gen++
	d.active = true
	d.sub = nil
	vk, vk1 := reps[d.k-1].Value, reps[d.k].Value
	if vk == vk1 {
		d.inPreamble = false
		d.beginWithZ(vk)
		return
	}
	d.inPreamble = true
	d.preVK, d.preV1 = vk, vk1
	d.out = ids(reps[:d.k])
	d.rules.assignTwoSided(d.c, d.out, filter.AtLeast(vk1), filter.AtMost(vk))
}

// beginWithZ classifies the nodes around z and opens round 0. It probes the
// ε-neighborhood (σ replies) and the clearly-above range (< k replies),
// matching the O(k log n + σ) initialisation of Lemma 5.3.
func (d *Dense) beginWithZ(z int64) {
	d.z = z
	d.zUpper = d.e.GrowFloor(z)
	d.zLowC = d.e.ShrinkCeil(z)
	d.l = filter.Make(d.zLowC, z)
	d.s1.Clear()
	d.s2.Clear()
	if !d.open(d.c, d.k, d.zLowC, d.zUpper, d.lr(), d.ur()) {
		// The dense premise broke between probe and classification
		// (only possible across steps); restart.
		d.endEpoch()
		return
	}
	d.refreshOutput()
}

// lr is ℓ_r, the midpoint of L_r.
func (d *Dense) lr() int64 { return d.l.Mid() }

// ur is u_r = ⌊ℓ_r/(1-ε)⌋.
func (d *Dense) ur() int64 { return d.e.GrowFloor(d.lr()) }

// HandleStep implements Monitor (standalone use).
func (d *Dense) HandleStep() {
	drainViolations(d.c, d.Handle)
}

// Handle routes one violation to the preamble, SUBPROTOCOL, or the DENSE
// case analysis.
func (d *Dense) Handle(rep wire.Report) {
	if d.inPreamble {
		d.inPreamble = false
		// Violation from below (a rest node crossed v_k): z := v_k;
		// from above (an output node fell through v_{k+1}): z := v_{k+1}.
		if rep.Dir == filter.DirUp {
			d.beginWithZ(d.preVK)
		} else {
			d.beginWithZ(d.preV1)
		}
		return
	}
	if d.sub != nil {
		d.handleSub(rep)
		return
	}
	d.handleDense(rep)
}

// endEpoch deactivates the epoch and hands control to the controller.
func (d *Dense) endEpoch() {
	d.active = false
	d.OnEpochEnd()
}

// switchTopK deactivates the epoch and asks the controller to run
// TOP-K-PROTOCOL (case (d): the dense cluster dissolved).
func (d *Dense) switchTopK() {
	d.active = false
	d.OnSwitchTopK()
}

// handleDense is the step-3 case analysis of DENSEPROTOCOL.
func (d *Dense) handleDense(rep wire.Report) {
	gen := d.gen
	i := rep.ID
	switch {
	case d.v1.Has(i):
		// Case a: i ∈ V1 fell below ℓ_r ⇒ ℓ* < ℓ_r.
		d.halveLower()
	case d.v3.Has(i):
		// Case a′: i ∈ V3 rose above u_r ⇒ ℓ* ≥ ℓ_r.
		d.halveUpper()
	case d.s1.Has(i) && d.s2.Has(i):
		// An unresolved S1∩S2 node: SUBPROTOCOL decides it (the
		// re-entry rule; see DESIGN.md interpretation 9).
		d.startSub(i)
	case d.s1.Has(i):
		if rep.Dir == filter.DirUp {
			// Case c.1: v > z/(1-ε) ⇒ i must be in F*.
			d.moveToV1(i)
		} else {
			// Case c.2: also observed below ℓ_r ⇒ S1∩S2 ⇒ SUB.
			d.s2.Add(i)
			d.startSub(i)
		}
	case d.s2.Has(i):
		if rep.Dir == filter.DirDown {
			// Case c′.1: v < (1-ε)z ⇒ i cannot be in F*.
			d.moveToV3(i)
		} else {
			// Case c′.2: also observed above u_r ⇒ S1∩S2 ⇒ SUB.
			// Align the node's tag with its S′1 membership before
			// the SUB entry broadcast retags the disbanded S′2.
			d.s1.Add(i)
			d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
			d.startSub(i)
		}
	case d.v2.Has(i):
		if rep.Dir == filter.DirUp {
			// Case b: v > u_r.
			if d.v1.Len()+d.s1.Len()+1 > d.k {
				// b.1: more than k nodes certified above u_r.
				d.halveUpper()
			} else {
				// b.2: record i in S1.
				d.s1.Add(i)
				d.c.SetTagFilter(i, wire.TagV2S1, filter.Make(d.lr(), d.zUpper))
				d.refreshOutput()
			}
		} else {
			// Case b′: v < ℓ_r.
			if d.v3.Len()+d.s2.Len()+1 > d.c.N()-d.k {
				// b′.1: more than n-k nodes certified below ℓ_r.
				d.halveLower()
			} else {
				// b′.2: record i in S2.
				d.s2.Add(i)
				d.c.SetTagFilter(i, wire.TagV2S2, filter.Make(d.zLowC, d.ur()))
				d.refreshOutput()
			}
		}
	default:
		panic(fmt.Sprintf("protocol: dense violation from unclassified node %d", i))
	}
	if d.gen != gen || !d.active || d.sub != nil {
		return
	}
	d.checkTopKSwitch()
}

// halveLower sets L_{r+1} to the lower half of L_r and disbands S2
// (cases a and b′.1).
func (d *Dense) halveLower() {
	d.l = d.l.LowerHalf()
	d.Halvings++
	d.s2.Clear()
	d.advanceRound( /* disbandS2 */ true, false)
}

// halveUpper sets L_{r+1} to the upper half of L_r and disbands S1
// (cases a′ and b.1).
func (d *Dense) halveUpper() {
	d.l = d.l.UpperHalf()
	d.Halvings++
	d.s1.Clear()
	d.advanceRound(false /* disbandS1 */, true)
}

// advanceRound ends the protocol if L is empty, otherwise opens round r+1:
// one broadcast retags the disbanded side and installs the new round's
// filters for every tag.
func (d *Dense) advanceRound(disbandS2, disbandS1 bool) {
	if d.l.Empty() {
		d.endEpoch()
		return
	}
	rule := d.freshRoundRule()
	if disbandS2 {
		rule.WithRetag(wire.TagV2S2, wire.TagV2)
		rule.WithRetag(wire.TagV2S12, wire.TagV2S1)
	}
	if disbandS1 {
		rule.WithRetag(wire.TagV2S1, wire.TagV2)
		rule.WithRetag(wire.TagV2S12, wire.TagV2S2)
	}
	d.roundFilters(rule)
	d.c.BroadcastRule(rule)
	d.refreshOutput()
}

// freshRoundRule returns the reusable broadcast rule, reset to empty.
// Engines apply rules synchronously (see cluster.Cluster.BroadcastRule), so
// one rule object serves every round broadcast.
func (d *Dense) freshRoundRule() *wire.FilterRule {
	if d.roundRule == nil {
		d.roundRule = wire.NewFilterRule()
	}
	*d.roundRule = wire.FilterRule{}
	return d.roundRule
}

// roundFilters installs the step-2 filter table for the current round.
func (d *Dense) roundFilters(rule *wire.FilterRule) {
	lr, ur := d.lr(), d.ur()
	rule.With(wire.TagV1, filter.AtLeast(lr)).
		With(wire.TagV2S1, filter.Make(lr, d.zUpper)).
		With(wire.TagV2, filter.Make(lr, ur)).
		With(wire.TagV2S2, filter.Make(d.zLowC, ur)).
		With(wire.TagV3, filter.AtMost(ur))
}

// moveToV1 moves i out of V2 (and any S-sets) into V1.
func (d *Dense) moveToV1(i int) {
	d.removeFromV2(i)
	d.v1.Add(i)
	d.c.SetTagFilter(i, wire.TagV1, filter.AtLeast(d.lr()))
	d.refreshOutput()
}

// moveToV3 moves i out of V2 into V3; the upper endpoint is the current
// context's u (u_r, or u′_{r′} while SUBPROTOCOL runs).
func (d *Dense) moveToV3(i int) {
	d.removeFromV2(i)
	d.v3.Add(i)
	up := d.ur()
	if d.sub != nil {
		up = d.sub.ur(d)
	}
	d.c.SetTagFilter(i, wire.TagV3, filter.AtMost(up))
	d.refreshOutput()
}

func (d *Dense) removeFromV2(i int) {
	d.v2.Del(i)
	d.s1.Del(i)
	d.s2.Del(i)
	if d.sub != nil {
		d.sub.s1.Del(i)
		d.sub.s2.Del(i)
	}
}

// checkTopKSwitch implements case (d)/(e): when V2 is fully classified —
// k nodes certified above and n-k below — the unique-output regime holds
// and the controller switches to TOP-K-PROTOCOL.
func (d *Dense) checkTopKSwitch() {
	if d.sub != nil {
		return // sub has its own check
	}
	if !d.s1.Intersects(&d.s2) && d.v1.Len()+d.s1.Len() == d.k && d.v3.Len()+d.s2.Len() == d.c.N()-d.k {
		d.switchTopK()
	}
}

// refreshOutput recomputes F(t) = V1 ∪ (S1\S2) ∪ fill from V2\(S1∪S2),
// taking the fill in id order; during SUBPROTOCOL the primed sets take over
// (Lemma 5.4's output — and S′1\S′2 ∪ (S′1∩S′2) = S′1). If no valid output
// of size k exists the dense premise broke and the epoch ends.
func (d *Dense) refreshOutput() {
	s1, s2 := &d.s1, &d.s2
	if d.sub != nil {
		s1, s2 = &d.sub.s1, &d.sub.s2
	}
	out := &d.outSet
	if d.sub != nil {
		out.Copy(s1)
	} else {
		out.AndNot(s1, s2)
	}
	for i := range d.v1.All() {
		out.Add(i)
	}
	d.fill.AndNot(&d.v2, s1)
	d.fill.AndNot(&d.fill, s2)
	if out.Len() > d.k || out.Len()+d.fill.Len() < d.k {
		d.endEpoch()
		return
	}
	for i := range d.fill.All() {
		if out.Len() == d.k {
			break
		}
		out.Add(i)
	}
	d.outBuf = out.AppendTo(d.outBuf[:0])
	d.out = d.outBuf
}

// CheckInvariants compares the engine-side tags against the server-side set
// classification and the current output against the set-derived expectation.
// Test instrumentation; returns a description of the first divergence.
func (d *Dense) CheckInvariants(tags []wire.Tag) error {
	if !d.active || d.inPreamble {
		return nil
	}
	for i := range tags {
		var want wire.Tag
		switch {
		case d.v1.Has(i):
			want = wire.TagV1
		case d.v3.Has(i):
			want = wire.TagV3
		case d.v2.Has(i) && d.sub != nil:
			want = classTag(d.sub.s1.Has(i), d.sub.s2.Has(i))
		case d.v2.Has(i):
			want = classTag(d.s1.Has(i), d.s2.Has(i))
		default:
			return fmt.Errorf("dense: node %d in no set", i)
		}
		if tags[i] != want {
			return fmt.Errorf("dense: node %d tag %v, sets say %v (sub=%v)", i, tags[i], want, d.sub != nil)
		}
	}
	return nil
}
