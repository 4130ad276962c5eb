package cluster_test

import (
	"testing"

	"topkmon/internal/cluster"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/wire"
)

// engines returns the implementations under conformance test, by name.
// The tests pin the cluster.Engine contract — unit-cost accounting, index
// fallbacks, Reset(seed) byte-equality — rather than one engine's
// internals, so an engine added behind the interface joins the suite by
// adding its constructor here.
func engines(n int, seed uint64) map[string]func() cluster.Engine {
	return map[string]func() cluster.Engine{
		"lockstep": func() cluster.Engine { return lockstep.New(n, seed) },
	}
}

// TestConformanceMessageCosts pins the exact unit-cost accounting of every
// primitive.
func TestConformanceMessageCosts(t *testing.T) {
	for name, mk := range engines(8, 3) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			eng.Advance([]int64{10, 20, 30, 40, 50, 60, 70, 80})

			cost := func(f func()) int64 {
				before := eng.Counters().Snapshot()
				f()
				return eng.Counters().Snapshot().Sub(before).Total()
			}

			if got := cost(func() { eng.BroadcastRule(wire.NewFilterRule()) }); got != 1 {
				t.Errorf("BroadcastRule cost %d, want 1", got)
			}
			if got := cost(func() { eng.SetFilter(2, filter.All) }); got != 1 {
				t.Errorf("SetFilter cost %d, want 1", got)
			}
			if got := cost(func() { eng.SetTagFilter(2, wire.TagV1, filter.All) }); got != 1 {
				t.Errorf("SetTagFilter cost %d, want 1", got)
			}
			if got := cost(func() { eng.Probe(3) }); got != 2 {
				t.Errorf("Probe cost %d, want 2", got)
			}
			// Collect: 1 broadcast + 1 per match (values 30..50 → 3).
			if got := cost(func() { eng.Collect(wire.InRange(30, 50)) }); got != 4 {
				t.Errorf("Collect cost %d, want 4", got)
			}
			// Silent sweep is free.
			if got := cost(func() { eng.Sweep(wire.Violating()) }); got != 0 {
				t.Errorf("silent Sweep cost %d, want 0", got)
			}
			if got := cost(func() { eng.MaxFindInit(-1, true) }); got != 1 {
				t.Errorf("MaxFindInit cost %d, want 1", got)
			}
			if got := cost(func() { eng.MaxFindRaise(1, 20) }); got != 1 {
				t.Errorf("MaxFindRaise cost %d, want 1", got)
			}
			if got := cost(func() { eng.MaxFindExclude(1) }); got != 1 {
				t.Errorf("MaxFindExclude cost %d, want 1", got)
			}
		})
	}
}

// TestConformanceIndexFallbacks pins the engine-side full-scan accounting:
// tag predicates and domain-covering intervals bill exactly one fallback
// per Sweep/Collect; routable intervals and violation sweeps (resolved from
// the filter-interval mirror) bill none — the decision is made from the
// predicate alone.
func TestConformanceIndexFallbacks(t *testing.T) {
	for name, mk := range engines(8, 3) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			eng.Advance([]int64{10, 20, 30, 40, 50, 60, 70, 80})

			eng.Sweep(wire.Violating())            // mirror-routed → no fallback
			eng.Collect(wire.HasTag(wire.TagNone)) // state-decided → fallback
			eng.Collect(wire.InRange(30, 50))      // routed
			eng.Sweep(wire.InRange(200, 300))      // routed (silent)
			eng.MaxFindInit(-1, true)
			eng.Collect(wire.AboveActive(-1)) // domain-covering → fallback

			if got := eng.Counters().IndexFallbacks(); got != 2 {
				t.Errorf("IndexFallbacks = %d, want 2", got)
			}
			if got := eng.Counters().Snapshot().IndexFallbacks; got != 2 {
				t.Errorf("Snapshot.IndexFallbacks = %d, want 2", got)
			}
			eng.Reset(3)
			if got := eng.Counters().IndexFallbacks(); got != 0 {
				t.Errorf("Reset left IndexFallbacks = %d", got)
			}
		})
	}
}

// TestConformanceQuietStepsNoFallbacks pins the headline regression of the
// filter-interval mirror: the scheduled per-step violation sweep is
// mirror-routed, so a long run of quiet steps — values moving strictly
// inside their filters, every violation sweep finding nothing — bills ZERO
// index fallbacks AND zero messages. If routing ever regresses to the full
// scan, the fallback counter moves and this test names the engine.
func TestConformanceQuietStepsNoFallbacks(t *testing.T) {
	const n, steps = 64, 50
	for name, mk := range engines(n, 5) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			// Wide filters admit the whole value walk below: every step
			// stays quiet.
			eng.Advance(make([]int64, n))
			eng.BroadcastRule(wire.NewFilterRule().With(wire.TagNone, filter.Make(0, 2000)))
			before := eng.Counters().Snapshot()
			vals := make([]int64, n)
			for step := 0; step < steps; step++ {
				for i := range vals {
					vals[i] = int64((step*37 + i*13) % 2000)
				}
				eng.Advance(vals)
				eng.Sweep(wire.Violating())
				if _, ok := eng.DetectViolation(); ok {
					t.Fatal("quiet step produced a violation")
				}
				eng.EndStep()
			}
			d := eng.Counters().Snapshot().Sub(before)
			if d.IndexFallbacks != 0 {
				t.Errorf("quiet steps billed %d index fallbacks, want 0", d.IndexFallbacks)
			}
			if d.Total() != 0 {
				t.Errorf("quiet steps spent %d messages, want 0", d.Total())
			}
		})
	}
}

// TestConformanceSweepChannelSplit: a sweep with violators bills node
// reports on the node→server channel plus exactly one halt broadcast.
func TestConformanceSweepChannelSplit(t *testing.T) {
	for name, mk := range engines(16, 7) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			vals := make([]int64, 16)
			eng.Advance(vals)
			eng.SetFilter(5, filter.Make(1, 2))
			before := eng.Counters().Snapshot()
			senders := eng.Sweep(wire.Violating())
			if len(senders) == 0 {
				t.Fatal("missed violator")
			}
			d := eng.Counters().Snapshot().Sub(before)
			if d.ByChannel[metrics.Broadcast] != 1 {
				t.Errorf("halt broadcasts = %d, want 1", d.ByChannel[metrics.Broadcast])
			}
			if d.ByChannel[metrics.NodeToServer] != int64(len(senders)) {
				t.Errorf("node reports %d != senders %d",
					d.ByChannel[metrics.NodeToServer], len(senders))
			}
		})
	}
}

// TestConformanceTagAndFilterState: state mutations via broadcast rules and
// unicasts are observable identically through the Inspector.
func TestConformanceTagAndFilterState(t *testing.T) {
	for name, mk := range engines(4, 11) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			eng.Advance([]int64{1, 2, 3, 4})
			eng.SetTagFilter(1, wire.TagV2S2, filter.Make(5, 6))
			rule := wire.NewFilterRule().
				WithRetag(wire.TagV2S2, wire.TagV2).
				With(wire.TagV2, filter.Make(7, 8)).
				With(wire.TagNone, filter.Make(0, 100))
			eng.BroadcastRule(rule)
			tags, filters := eng.Tags(), eng.Filters()
			if tags[1] != wire.TagV2 || filters[1] != filter.Make(7, 8) {
				t.Errorf("node 1 state: %v %v", tags[1], filters[1])
			}
			if tags[0] != wire.TagNone || filters[0] != filter.Make(0, 100) {
				t.Errorf("node 0 state: %v %v", tags[0], filters[0])
			}
		})
	}
}

// TestConformanceDetectOnlyViolators: DetectViolation never reports a node
// that is inside its filter, across many configurations.
func TestConformanceDetectOnlyViolators(t *testing.T) {
	for name, mk := range engines(12, 13) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			for round := 0; round < 20; round++ {
				vals := make([]int64, 12)
				for i := range vals {
					vals[i] = int64(i * 10)
				}
				eng.Advance(vals)
				// Fence nodes round and round+1 out.
				a, b := round%12, (round+1)%12
				eng.SetFilter(a, filter.Make(1000, 2000))
				eng.SetFilter(b, filter.Make(1000, 2000))
				rep, ok := eng.DetectViolation()
				if !ok {
					t.Fatalf("round %d: violations missed", round)
				}
				if rep.ID != a && rep.ID != b {
					t.Fatalf("round %d: reported non-violator %d", round, rep.ID)
				}
				eng.SetFilter(a, filter.All)
				eng.SetFilter(b, filter.All)
			}
		})
	}
}

// TestConformanceDeferredReadsSeeCallOrderValues: MaxFindInit reads node
// values at execution time, so an engine deferring or batching directives
// must still execute it against the values of the PRECEDING Advance when a
// further Advance follows before any flush — the call-order semantics the
// lockstep engine has by construction.
func TestConformanceDeferredReadsSeeCallOrderValues(t *testing.T) {
	for name, mk := range engines(4, 19) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			eng.Advance([]int64{10, 1, 1, 1})
			eng.MaxFindInit(5, true) // node 0 activates: 10 > 5
			eng.Advance([]int64{0, 1, 1, 1})
			senders := eng.Sweep(wire.AboveActive(-1))
			if len(senders) != 1 || senders[0].ID != 0 {
				t.Fatalf("senders = %v, want exactly node 0 (activated at value 10, still active at value 0)", senders)
			}
		})
	}
}

// TestConformanceRoundsAccounted: sweeps and collects consume protocol
// rounds.
func TestConformanceRoundsAccounted(t *testing.T) {
	for name, mk := range engines(32, 17) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			eng.Advance(make([]int64, 32))
			eng.Sweep(wire.Violating()) // silent: γ+1 rounds
			eng.Collect(wire.InRange(0, 0))
			eng.EndStep()
			if eng.Counters().MaxRoundsPerStep() < 6 {
				t.Errorf("rounds/step = %d, want ≥ γ+2", eng.Counters().MaxRoundsPerStep())
			}
		})
	}
}
