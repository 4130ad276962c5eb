package lockstep

import (
	"slices"
	"testing"

	"topkmon/internal/faults"
	"topkmon/internal/filter"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
)

// checkViolatorSet asserts the engine's violator set holds exactly the
// nodes whose value lies outside their filter, {i : !flt[i].Contains(val[i])}.
// A single divergence would make routed violation sweeps return different
// reports than a full scan.
func checkViolatorSet(t *testing.T, e *Engine) {
	t.Helper()
	want := 0
	for i := range e.val {
		violating := !e.flt[i].Contains(e.val[i])
		if violating {
			want++
		}
		if got := e.vio.Has(i); got != violating {
			t.Fatalf("violator set has node %d = %v, want %v (value %d, filter %+v)",
				i, got, violating, e.val[i], e.flt[i])
		}
	}
	if got := e.vio.Len(); got != want {
		t.Fatalf("violator set holds %d nodes, want %d", got, want)
	}
}

// FuzzFilterMirror drives random op sequences — observations, unicast and
// broadcast filter assignments, engine resets — through the fault injector
// with delayed filter assignments, message drops, and a crash window
// enabled, and checks after every single op that the violator set still
// matches the node values and filters. The injector sits ABOVE the engine:
// a delayed op reaches the engine at the next Advance, a dropped op never
// reaches it, so the violator set (updated where the engine writes values
// and filters) must agree with the nodes no matter what the fault layer
// does.
func FuzzFilterMirror(f *testing.F) {
	// Delayed-assignment schedules in the PR 6 idiom: filter ops issued
	// back-to-back with Advances so held ops land one step late, plus a
	// reset mid-run and an empty-filter assignment.
	f.Add(uint8(2), []byte{1, 10, 3, 0, 40, 1, 20, 5, 0, 41, 2, 7, 9, 0, 42})
	f.Add(uint8(5), []byte{3, 8, 4, 0, 1, 3, 60, 0, 2, 4, 9, 1, 3, 3, 0, 5})
	f.Add(uint8(0), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 9})
	f.Add(uint8(7), []byte{1, 200, 200, 0, 0, 1, 200, 0, 0, 0, 3, 255, 0, 0})

	f.Fuzz(func(t *testing.T, planByte uint8, script []byte) {
		const n, seed = 17, 1234
		delays := [...]float64{0, 0.5, 1}
		drops := [...]float64{0, 0.4}
		plan := &faults.Plan{
			Delay: delays[planByte%3],
			Drop:  drops[(planByte/3)%2],
		}
		if planByte&0x40 != 0 {
			plan.Crashes = []faults.Crash{{Node: 2, From: 2, Until: 5}}
		}
		e := New(n, seed)
		w := faults.Wrap(e, plan, seed)

		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		vals := make([]int64, n)
		for steps := 0; len(script) > 0 && steps < 4096; steps++ {
			switch next() % 6 {
			case 0: // new observations (small domain → frequent flips)
				b := next()
				for i := range vals {
					vals[i] = int64(b)%64 + int64(i*7%64)
				}
				w.Advance(vals)
			case 1: // unicast filter (possibly delayed or dropped)
				id, lo, width := int(next())%n, int64(next())%64, int64(next())%8
				w.SetFilter(id, filter.Make(lo, lo+width))
			case 2: // tag+filter unicast, occasionally the empty interval
				id, lo := int(next())%n, int64(next())%64
				iv := filter.Make(lo, lo+4)
				if lo%5 == 0 {
					iv = filter.Make(9, 3) // empty: always violating
				}
				w.SetTagFilter(id, wire.Tag(int(next())%int(wire.NumTags)), iv)
			case 3: // broadcast rule: narrow for untagged, all for the rest
				lo := int64(next()) % 64
				rule := wire.NewFilterRule().
					With(wire.TagNone, filter.Make(lo, lo+int64(next())%16)).
					With(wire.TagRest, filter.All)
				w.BroadcastRule(rule)
			case 4: // full reset: the violator set must rewind with the nodes
				w.Reset(uint64(next()))
			default: // exercise the violator-routed read paths
				w.Sweep(wire.Violating())
				w.DetectViolation()
			}
			checkViolatorSet(t, e)
		}
	})
}

// TestViolatorSetRandomOps drives the engine with random value and filter
// assignments (including the re-assign-same, empty-filter and
// all-admitting edges) and checks the violator set stays exact after every
// single operation and after Reset.
func TestViolatorSetRandomOps(t *testing.T) {
	const n, ops = 61, 4000
	r := rngx.New(99)
	e := New(n, 1)
	vals := make([]int64, n)
	checkViolatorSet(t, e)

	for op := 0; op < ops; op++ {
		i := r.Intn(n)
		switch r.Intn(5) {
		case 0, 1: // value move (small domain to force in/out flips)
			vals[i] = r.Int63n(64)
			e.Advance(vals)
		case 2: // narrow filter
			lo := r.Int63n(64)
			e.SetFilter(i, filter.Make(lo, lo+r.Int63n(8)))
		case 3: // empty filter: everything violates
			e.SetFilter(i, filter.Make(9, 3))
		default: // all-admitting filter: nothing violates
			e.SetFilter(i, filter.All)
		}
		checkViolatorSet(t, e)
	}

	e.Reset(2)
	checkViolatorSet(t, e)
	if e.vio.Len() != 0 {
		t.Fatalf("Reset left %d violators", e.vio.Len())
	}
}

// TestViolatorScanListReuses pins the zero-allocation, id-ordered
// contract of the violation sweep's scan list: it lists the violators in
// ascending id order and reuses the engine's scratch.
func TestViolatorScanListReuses(t *testing.T) {
	e := New(8, 1)
	for _, id := range []int{6, 2, 4} {
		e.SetFilter(id, filter.Make(5, 5)) // value 0 → violating
	}
	if got, want := e.scanList(wire.Violating()), []int32{2, 4, 6}; !slices.Equal(got, want) {
		t.Errorf("violation scan list = %v, want %v", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { e.scanList(wire.Violating()) }); a != 0 {
		t.Errorf("violation scan list allocates %v times per call", a)
	}
}
