package sketch

import (
	"math"
	"reflect"
	"testing"
)

// testRNG is a tiny splitmix64 for seeded test traces (kept local so the
// package under test stays stdlib-only even in its tests).
type testRNG struct{ state uint64 }

func (r *testRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// zipfTrace returns a seeded zipf-skewed item trace over [0, items):
// sampled by inverse rank via a precomputed cumulative weight table with
// w(rank) = 1/(rank+1)^s, ranks scattered over item ids by a seeded swap
// pass so item id and popularity are uncorrelated.
func zipfTrace(items, events int, s float64, seed uint64) []uint64 {
	cum := make([]float64, items)
	total := 0.0
	for r := 0; r < items; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		cum[r] = total
	}
	rankToItem := make([]uint64, items)
	for i := range rankToItem {
		rankToItem[i] = uint64(i)
	}
	rng := &testRNG{state: seed}
	for i := items - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		rankToItem[i], rankToItem[j] = rankToItem[j], rankToItem[i]
	}
	out := make([]uint64, events)
	for e := range out {
		u := float64(rng.next()>>11) / float64(uint64(1)<<53) * total
		lo, hi := 0, items-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[e] = rankToItem[lo]
	}
	return out
}

func mkSummaries() []Summary {
	return []Summary{
		NewSpaceSaving(64),
		NewMisraGries(64),
		NewCountMin(256, 4, 64, 42),
	}
}

// exactCounts replays a trace into an exact frequency map.
func exactCounts(trace []uint64) map[uint64]int64 {
	truth := make(map[uint64]int64)
	for _, it := range trace {
		truth[it]++
	}
	return truth
}

// TestErrorBounds pins each sketch's documented guarantee on a seeded
// zipf trace, with vacuity guards: the trace must actually overflow the
// summaries (Space-Saving evictions, Misra-Gries decrements, Count-Min
// collisions) and at least one estimate must differ from the truth,
// otherwise the bounds are tested on nothing.
func TestErrorBounds(t *testing.T) {
	const items, events = 512, 20000
	trace := zipfTrace(items, events, 1.1, 7)
	truth := exactCounts(trace)
	for _, s := range mkSummaries() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, it := range trace {
				s.Observe(it, 1)
			}
			if s.Total() != events {
				t.Fatalf("Total = %d, want %d", s.Total(), events)
			}
			inexact := 0
			for it := uint64(0); it < items; it++ {
				est, bound := s.Estimate(it)
				f := truth[it]
				if est != f {
					inexact++
				}
				if f < est-bound || f > est+bound {
					t.Fatalf("item %d: true %d outside [%d-%d, %d+%d]", it, f, est, bound, est, bound)
				}
				switch s.(type) {
				case *SpaceSaving, *CountMin:
					if est < f {
						t.Fatalf("%s under-estimates item %d: est %d < true %d", s.Name(), it, est, f)
					}
				case *MisraGries:
					if est > f {
						t.Fatalf("misra-gries over-estimates item %d: est %d > true %d", it, est, f)
					}
				}
			}
			// Vacuity guards: the summaries must be under real pressure and
			// the epsilon*N bound must be non-trivial and respected.
			if inexact == 0 {
				t.Fatal("vacuous: every estimate exact — trace does not stress the summary")
			}
			if s.ErrorBound() <= 0 {
				t.Fatal("vacuous: ErrorBound is 0 under overflow pressure")
			}
			switch sk := s.(type) {
			case *SpaceSaving:
				// eps*N with eps = 1/c.
				if max := s.Total() / 64; s.ErrorBound() > max {
					t.Fatalf("space-saving ErrorBound %d exceeds N/c = %d", s.ErrorBound(), max)
				}
			case *MisraGries:
				if max := s.Total() / (64 + 1); s.ErrorBound() > max {
					t.Fatalf("misra-gries ErrorBound %d exceeds N/(c+1) = %d", s.ErrorBound(), max)
				}
			case *CountMin:
				// The per-item bound must actually hold on this seed for
				// every item (deterministic given the seed).
				_ = sk
			}
		})
	}
}

// TestHeavyDeterministicOrder pins Heavy's (count desc, item asc) contract
// and that two identically-seeded summaries produce byte-identical Heavy
// snapshots after identical traces.
func TestHeavyDeterministicOrder(t *testing.T) {
	const items, events = 256, 8000
	trace := zipfTrace(items, events, 1.2, 11)
	mk := func() []Summary { return mkSummaries() }
	a, b := mk(), mk()
	for i := range a {
		for _, it := range trace {
			a[i].Observe(it, 1)
			b[i].Observe(it, 1)
		}
		ha := a[i].Heavy(16, nil)
		hb := b[i].Heavy(16, nil)
		if !reflect.DeepEqual(ha, hb) {
			t.Fatalf("%s: identical traces disagree:\n%v\n%v", a[i].Name(), ha, hb)
		}
		if len(ha) == 0 {
			t.Fatalf("%s: empty heavy list", a[i].Name())
		}
		for j := 1; j < len(ha); j++ {
			prev, cur := ha[j-1], ha[j]
			if cur.Count > prev.Count || (cur.Count == prev.Count && cur.Item <= prev.Item) {
				t.Fatalf("%s: heavy order violated at %d: %v then %v", a[i].Name(), j, prev, cur)
			}
		}
	}
}

// TestResetReplaysIdentically pins the repo's replay contract: Reset(seed)
// followed by the same trace must reproduce the original run's Heavy
// snapshot, Total, and ErrorBound exactly.
func TestResetReplaysIdentically(t *testing.T) {
	const items, events = 128, 6000
	trace := zipfTrace(items, events, 1.1, 3)
	for _, s := range mkSummaries() {
		t.Run(s.Name(), func(t *testing.T) {
			run := func() ([]Counter, int64, int64) {
				for _, it := range trace {
					s.Observe(it, 2)
				}
				return s.Heavy(32, nil), s.Total(), s.ErrorBound()
			}
			h1, t1, e1 := run()
			s.Reset(42)
			h2, t2, e2 := run()
			if !reflect.DeepEqual(h1, h2) || t1 != t2 || e1 != e2 {
				t.Fatalf("replay after Reset diverged:\n%v total=%d bound=%d\n%v total=%d bound=%d",
					h1, t1, e1, h2, t2, e2)
			}
		})
	}
}

// TestObserveAllocs enforces the construction-time allocation budget:
// steady-state Observe (and Estimate, and Heavy into a reused buffer)
// allocate nothing, the sketch analogue of TestFacadeStepAllocs.
func TestObserveAllocs(t *testing.T) {
	const items, events = 512, 4000
	trace := zipfTrace(items, events, 1.1, 9)
	for _, s := range mkSummaries() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, it := range trace {
				s.Observe(it, 1)
			}
			i := 0
			if avg := testing.AllocsPerRun(2000, func() {
				s.Observe(trace[i%len(trace)], 1)
				i++
			}); avg != 0 {
				t.Errorf("Observe allocates %.2f per op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(2000, func() {
				s.Estimate(trace[i%len(trace)])
				i++
			}); avg != 0 {
				t.Errorf("Estimate allocates %.2f per op, want 0", avg)
			}
			buf := make([]Counter, 0, 64)
			if avg := testing.AllocsPerRun(500, func() {
				buf = s.Heavy(16, buf)
			}); avg != 0 {
				t.Errorf("Heavy into reused buffer allocates %.2f per op, want 0", avg)
			}
		})
	}
}

// TestWeightedAndDegenerateObserves covers deltas > 1, ignored deltas,
// single-counter capacities, and the all-equal-ties regime.
func TestWeightedAndDegenerateObserves(t *testing.T) {
	for _, s := range []Summary{NewSpaceSaving(1), NewMisraGries(1), NewCountMin(2, 1, 1, 5)} {
		s.Observe(10, 5)
		s.Observe(11, 0)  // ignored
		s.Observe(12, -3) // ignored
		if s.Total() != 5 {
			t.Fatalf("%s: Total = %d, want 5", s.Name(), s.Total())
		}
		s.Observe(13, 7)
		if h := s.Heavy(4, nil); len(h) == 0 {
			t.Fatalf("%s: no heavy items", s.Name())
		}
	}

	// All-equal ties: every item observed the same amount; Heavy must be
	// item-ascending within the tied count.
	ss := NewSpaceSaving(16)
	for it := uint64(0); it < 8; it++ {
		ss.Observe(it, 3)
	}
	h := ss.Heavy(8, nil)
	if len(h) != 8 {
		t.Fatalf("heavy len %d, want 8", len(h))
	}
	for j, c := range h {
		if c.Item != uint64(j) || c.Count != 3 || c.Err != 0 {
			t.Fatalf("tie order wrong at %d: %+v", j, c)
		}
	}
}

// TestSpaceSavingEvictionAccounting pins the classic eviction mechanics on
// a tiny hand-checkable trace.
func TestSpaceSavingEvictionAccounting(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Observe(1, 5)
	s.Observe(2, 3)
	s.Observe(3, 1) // evicts item 2 (min=3): count 4, err 3
	est, bound := s.Estimate(3)
	if est != 4 || bound != 3 {
		t.Fatalf("estimate(3) = (%d,%d), want (4,3)", est, bound)
	}
	est, bound = s.Estimate(2) // untracked: bounded by min counter
	if est != 4 || bound != 4 {
		t.Fatalf("estimate(2) = (%d,%d), want (4,4)", est, bound)
	}
	if eb := s.ErrorBound(); eb != 4 {
		t.Fatalf("ErrorBound = %d, want 4 (min counter)", eb)
	}
}

// TestMisraGriesDecrementAccounting pins the decrement mechanics.
func TestMisraGriesDecrementAccounting(t *testing.T) {
	m := NewMisraGries(2)
	m.Observe(1, 5)
	m.Observe(2, 3)
	m.Observe(3, 2) // no room: decrement round d=2 (absorbs the arrival)
	if m.ErrorBound() != 2 {
		t.Fatalf("decrs = %d, want 2", m.ErrorBound())
	}
	if est, _ := m.Estimate(1); est != 3 {
		t.Fatalf("estimate(1) = %d, want 3", est)
	}
	if est, _ := m.Estimate(2); est != 1 {
		t.Fatalf("estimate(2) = %d, want 1", est)
	}
	if est, _ := m.Estimate(3); est != 0 {
		t.Fatalf("estimate(3) = %d, want 0 (absorbed)", est)
	}
	m.Observe(4, 4) // d = min(1, 4) = 1 frees item 2's slot, 4 enters with 3
	if est, _ := m.Estimate(4); est != 3 {
		t.Fatalf("estimate(4) = %d, want 3", est)
	}
	if m.ErrorBound() != 3 {
		t.Fatalf("decrs = %d, want 3", m.ErrorBound())
	}
}

// TestCountMinNeverUnderEstimates exercises heavy collision pressure (tiny
// width) — the over-estimate invariant must survive it.
func TestCountMinNeverUnderEstimates(t *testing.T) {
	const items, events = 300, 10000
	trace := zipfTrace(items, events, 1.0, 13)
	c := NewCountMin(8, 2, 8, 99)
	truth := exactCounts(trace)
	for _, it := range trace {
		c.Observe(it, 1)
	}
	under := false
	for it, f := range truth {
		est, _ := c.Estimate(it)
		if est < f {
			t.Fatalf("under-estimate: item %d est %d < true %d", it, est, f)
		}
		if est > f {
			under = true // over-estimates exist: collisions are real
		}
	}
	if !under {
		t.Fatal("vacuous: width-8 sketch produced no collisions")
	}
}

// TestOATableDeleteChains stresses the backward-shift deletion against a
// mirror map through adversarial same-bucket churn.
func TestOATableDeleteChains(t *testing.T) {
	const capacity = 32
	tab := newOATable(capacity)
	mirror := make(map[uint64]int32)
	rng := &testRNG{state: 77}
	keys := make([]uint64, 0, capacity)
	for op := 0; op < 20000; op++ {
		switch rng.next() % 3 {
		case 0, 1:
			if len(keys) < capacity {
				k := rng.next() % 64 // small key space: heavy collisions
				if _, ok := mirror[k]; !ok {
					v := int32(op % 1000)
					tab.put(k, v)
					mirror[k] = v
					keys = append(keys, k)
				}
			}
		case 2:
			if len(keys) > 0 {
				i := int(rng.next() % uint64(len(keys)))
				k := keys[i]
				tab.del(k)
				delete(mirror, k)
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
		}
		for k, v := range mirror {
			if got := tab.get(k); got != v {
				t.Fatalf("op %d: get(%d) = %d, want %d", op, k, got, v)
			}
		}
		if got := tab.get(12345678); got != -1 {
			t.Fatalf("op %d: absent key resolved to %d", op, got)
		}
	}
}

// TestSizingHelpers pins the Count-Min sizing formulas from the snippets'
// from_error_rate construction.
func TestSizingHelpers(t *testing.T) {
	if w := CountMinWidth(0.01); w != 272 {
		t.Fatalf("CountMinWidth(0.01) = %d, want 272", w)
	}
	if d := CountMinDepth(0.01); d != 5 {
		t.Fatalf("CountMinDepth(0.01) = %d, want 5", d)
	}
}

// TestNames pins the report-name format other layers embed in tables.
func TestNames(t *testing.T) {
	for _, want := range []struct {
		s    Summary
		name string
	}{
		{NewSpaceSaving(64), "space-saving(c=64)"},
		{NewMisraGries(32), "misra-gries(c=32)"},
		{NewCountMin(256, 4, 64, 1), "count-min(w=256,d=4,track=64)"},
	} {
		if got := want.s.Name(); got != want.name {
			t.Fatalf("Name = %q, want %q", got, want.name)
		}
	}
}
