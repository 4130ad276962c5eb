package lockstep

import (
	"testing"

	"topkmon/internal/faults"
	"topkmon/internal/filter"
	"topkmon/internal/wire"
)

// checkMirrorMatchesNodes asserts the engine's filter-interval mirror is a
// faithful copy of the actual per-node state: every mirrored interval and
// value equals the node's, and the mirrored violator flag equals the ground
// truth !Filter.Contains(Value). This is the tentpole's no-desync
// obligation — a single divergence would make mirror-routed violation
// sweeps return different reports than a full scan.
func checkMirrorMatchesNodes(t *testing.T, e *Engine) {
	t.Helper()
	m := e.mir
	for _, nd := range e.nodes {
		if got := m.Interval(nd.ID); got != nd.Filter {
			t.Fatalf("mirror interval for node %d = %+v, node has %+v", nd.ID, got, nd.Filter)
		}
		if got := m.Value(nd.ID); got != nd.Value {
			t.Fatalf("mirror value for node %d = %d, node has %d", nd.ID, got, nd.Value)
		}
		want := !nd.Filter.Contains(nd.Value)
		if got := m.Violating(nd.ID); got != want {
			t.Fatalf("mirror Violating(%d) = %v, want %v (value %d, filter %+v)",
				nd.ID, got, want, nd.Value, nd.Filter)
		}
	}
}

// FuzzFilterMirror drives random op sequences — observations, unicast and
// broadcast filter assignments, engine resets — through the fault injector
// with delayed filter assignments, message drops, and a crash window
// enabled, and checks after every single op that the mirror still equals
// the actual node state. The injector sits ABOVE the engine: a delayed op
// reaches the engine at the next Advance, a dropped op never reaches it,
// so the mirror (updated inside the engine, adjacent to the node mutation)
// must agree with the nodes no matter what the fault layer does.
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
			case 4: // full reset: mirror must rewind with the nodes
				w.Reset(uint64(next()))
			default: // exercise the mirror-routed read paths
				w.Sweep(wire.Violating())
				w.DetectViolation()
			}
			checkMirrorMatchesNodes(t, e)
		}
	})
}
