package lockstep

import (
	"math"
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// The tests in this file pin the node-local behaviour the engine hosts —
// violation direction, predicate matching, rule application, max-find
// state and the EXISTENCE send schedule — through the engine's primitives.

func TestViolationClassification(t *testing.T) {
	e := New(1, 99)
	e.SetFilter(0, filter.Make(10, 20))
	for _, tc := range []struct {
		v    int64
		want filter.Direction
	}{{15, filter.DirNone}, {25, filter.DirUp}, {5, filter.DirDown}} {
		e.Advance([]int64{tc.v})
		if got := e.Probe(0).Dir; got != tc.want {
			t.Errorf("value %d against [10, 20]: direction %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestMatchPredicates(t *testing.T) {
	e := New(4, 99)
	const id = 3
	e.Advance([]int64{0, 0, 0, 50})
	e.SetFilter(id, filter.Make(0, 40))
	if !e.match(id, wire.Violating()) {
		t.Error("violating node must match PredViolating")
	}
	e.SetFilter(id, filter.All)
	if e.match(id, wire.Violating()) {
		t.Error("contained node must not match PredViolating")
	}
	if !e.match(id, wire.InRange(50, 50)) || e.match(id, wire.InRange(51, 99)) {
		t.Error("InRange boundaries wrong")
	}
	e.SetTagFilter(id, wire.TagV2, filter.All)
	if !e.match(id, wire.HasTag(wire.TagV2)) || e.match(id, wire.HasTag(wire.TagV1)) {
		t.Error("HasTag wrong")
	}
	e.MaxFindInit(-1, true)
	if !e.match(id, wire.AboveActive(49)) || e.match(id, wire.AboveActive(50)) {
		t.Error("AboveActive threshold wrong")
	}
	e.MaxFindInit(50, true) // at the floor: inactive
	if e.match(id, wire.AboveActive(0)) {
		t.Error("inactive node must not match AboveActive")
	}
}

func TestApplyFilterRule(t *testing.T) {
	e := New(2, 99)
	e.SetTagFilter(1, wire.TagV2S2, filter.Make(1, 2))
	rule := wire.NewFilterRule().
		WithRetag(wire.TagV2S2, wire.TagV2).
		With(wire.TagV2, filter.Make(30, 40))
	e.BroadcastRule(rule)
	if tag, iv := e.Tags()[1], e.Filters()[1]; tag != wire.TagV2 || iv != filter.Make(30, 40) {
		t.Errorf("rule must retag before filtering: got %v %v", tag, iv)
	}
	if tag, iv := e.Tags()[0], e.Filters()[0]; tag != wire.TagNone || iv != filter.All {
		t.Errorf("node with an undefined tag changed: %v %v", tag, iv)
	}
}

func TestMaxFindLifecycle(t *testing.T) {
	e := New(3, 99)
	const id = 2
	e.Advance([]int64{0, 0, 100})
	e.MaxFindInit(-1, true)
	if !e.mfActive[id] {
		t.Error("node above floor must activate")
	}
	e.MaxFindRaise(0, 100) // best equals value: deactivate
	if e.mfActive[id] {
		t.Error("node at best must deactivate")
	}
	e.MaxFindInit(-1, false)
	if !e.mfActive[id] {
		t.Error("re-init must reactivate non-excluded node")
	}
	e.MaxFindExclude(id)
	if e.mfActive[id] || !e.mfExcluded[id] {
		t.Error("exclusion must bench the node")
	}
	e.MaxFindInit(-1, false)
	if e.mfActive[id] {
		t.Error("excluded node must stay benched without reset")
	}
	e.MaxFindInit(-1, true)
	if !e.mfActive[id] {
		t.Error("reset must clear exclusion")
	}
	e.MaxFindRaise(id, 50) // holder deactivates even above best
	if e.mfActive[id] {
		t.Error("holder must deactivate on raise")
	}
}

func TestMaxFindInitFloor(t *testing.T) {
	e := New(1, 99)
	e.Advance([]int64{10})
	e.MaxFindInit(10, true)
	if e.mfActive[0] {
		t.Error("node at floor must not activate")
	}
	e.MaxFindInit(9, true)
	if !e.mfActive[0] {
		t.Error("node above floor must activate")
	}
}

func TestExistenceRounds(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := ExistenceRounds(n); got != want {
			t.Errorf("ExistenceRounds(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestExistenceFinalRoundIsCertain(t *testing.T) {
	const n = 64
	e := New(n, 99)
	gamma := ExistenceRounds(n)
	for trial := 0; trial < 100; trial++ {
		if !e.existenceSend(5, gamma, gamma) {
			t.Fatal("final round must send with certainty")
		}
	}
}

func TestExistenceSendRate(t *testing.T) {
	// Round r sends with probability 2^r/n: check empirically at r=3, n=64
	// (p = 1/8).
	const n, r, trials = 64, 3, 40000
	e := New(n, 123)
	gamma := ExistenceRounds(n)
	hits := 0
	for i := 0; i < trials; i++ {
		if e.existenceSend(6, r, gamma) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.125) > 0.01 {
		t.Errorf("round-%d send rate %f, want 0.125", r, rate)
	}
}

// TestNewAllocsIndependentOfN pins that construction allocates a fixed
// number of slices, not one object per node.
func TestNewAllocsIndependentOfN(t *testing.T) {
	small := testing.AllocsPerRun(10, func() { New(16, 1) })
	large := testing.AllocsPerRun(10, func() { New(4096, 1) })
	if small != large {
		t.Errorf("New allocates %v times at n=16 but %v times at n=4096", small, large)
	}
	t.Logf("New allocates %v times at n=16 and n=4096", small)
}

// FuzzPredBounds cross-checks Pred.Bounds against the engine's match
// oracle. Bounds promises a NECESSARY interval — the contract the engine's
// value-bucket routing rests on: when ok is true, a node whose value lies
// outside [lo, hi] must never match the predicate, whatever its other
// local state (filter, tag, max-find activity). For PredInRange the bound
// is additionally exact.
func FuzzPredBounds(f *testing.F) {
	f.Add(uint8(2), int64(10), int64(20), uint8(0), int64(15), false)
	f.Add(uint8(1), int64(100), int64(0), uint8(0), int64(101), true)
	f.Add(uint8(1), int64(math.MaxInt64), int64(0), uint8(0), int64(7), true)
	f.Add(uint8(0), int64(0), int64(0), uint8(3), int64(42), false)
	f.Add(uint8(3), int64(0), int64(0), uint8(4), int64(-5), false)
	f.Fuzz(func(t *testing.T, kind uint8, x, y int64, tag uint8, v int64, active bool) {
		p := wire.Pred{
			Kind: wire.PredKind(kind % 4),
			X:    x,
			Y:    y,
			Tag:  wire.Tag(tag % uint8(wire.NumTags)),
		}
		lo, hi, ok := p.Bounds()

		// Node state written directly: v may lie outside the domain
		// Advance accepts, and the filter is arbitrary, possibly empty.
		e := New(1, 1)
		e.val[0] = v
		e.mfActive[0] = active
		e.tag[0] = wire.Tag(tag % uint8(wire.NumTags))
		e.flt[0] = filter.Make(y, x)
		match := e.match(0, p)

		if ok && match && (v < lo || v > hi) {
			t.Fatalf("pred %+v: node value %d matches outside Bounds [%d, %d]", p, v, lo, hi)
		}
		if p.Kind == wire.PredInRange {
			if !ok {
				t.Fatalf("PredInRange must be value-bounded")
			}
			if want := v >= lo && v <= hi; match != want {
				t.Fatalf("pred %+v: InRange bounds [%d, %d] not exact at %d", p, lo, hi, v)
			}
		}
	})
}
