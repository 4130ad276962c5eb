package topk_test

import (
	"fmt"
	"reflect"
	"testing"

	"topkmon/internal/eps"
	"topkmon/topk"
)

// chaosSchedules are the crash schedules the chaos matrix cycles through:
// a single mid-run crash, and two overlapping-window crashes.
func chaosSchedules() [][]topk.Crash {
	return [][]topk.Crash{
		{{Node: 1, From: 10, Until: 30}},
		{{Node: 0, From: 5, Until: 25}, {Node: 7, From: 40, Until: 60}},
	}
}

// chaosTrail is everything observable about a fault-armed facade run:
// per-step outputs, per-step health, and the final bill.
type chaosTrail struct {
	outs    [][]int
	healths []topk.Health
	cost    topk.Cost
}

// chaosRun drives m over trace one batch per step, recording output and
// health after every commit and enforcing the no-silent-wrong-answers
// guarantee: whenever Check fails, Health must not read Fresh.
func chaosRun(t *testing.T, m *topk.Monitor, trace [][]int64) chaosTrail {
	t.Helper()
	var trail chaosTrail
	batch := make([]topk.Update, 0, len(trace[0]))
	for step, vals := range trace {
		batch = batch[:0]
		for i, v := range vals {
			batch = append(batch, topk.Update{Node: i, Value: v})
		}
		if err := m.UpdateBatch(batch); err != nil {
			t.Fatalf("step %d: UpdateBatch: %v", step+1, err)
		}
		h := m.Health()
		if err := m.Check(); err != nil && h.State == topk.Fresh {
			t.Fatalf("step %d: SILENT WRONG ANSWER: Check failed (%v) but Health is fresh", step+1, err)
		}
		trail.outs = append(trail.outs, m.TopK(nil))
		trail.healths = append(trail.healths, h)
	}
	trail.cost = m.Cost()
	return trail
}

// TestChaosNoSilentWrongAnswers is the acceptance proof of the fault layer:
// across drop rates {0, 0.01, 0.1, 0.3} and two crash schedules, every
// committed step either validates against the built-in
// referee or is explicitly flagged non-Fresh. The matrix also proves it is
// not vacuous — the injector demonstrably drops messages, and the heavy
// corner demonstrably forces resyncs.
func TestChaosNoSilentWrongAnswers(t *testing.T) {
	const n, k, steps, seed = 24, 4, 80, 9
	e := eps.MustNew(1, 8)
	trace := mkTrace(n, steps, 3)

	var sawDrop, sawResync, sawNonFresh bool
	for _, rate := range []float64{0, 0.01, 0.1, 0.3} {
		for si, sched := range chaosSchedules() {
			name := fmt.Sprintf("lockstep/drop=%v/sched=%d", rate, si)
			t.Run(name, func(t *testing.T) {
				plan := &topk.FaultPlan{
					Drop:    rate,
					Dup:     rate / 2,
					Delay:   rate / 2,
					Crashes: sched,
				}
				m, err := topk.New(k, topk.WrapEps(e),
					topk.WithNodes(n), topk.WithSeed(seed),
					topk.WithFaults(plan))
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				trail := chaosRun(t, m, trace)
				if trail.cost.DroppedMsgs > 0 {
					sawDrop = true
				}
				if trail.cost.Resyncs > 0 {
					sawResync = true
				}
				for _, h := range trail.healths {
					if h.State != topk.Fresh {
						sawNonFresh = true
					}
				}
			})
		}
	}
	if !sawDrop {
		t.Error("chaos matrix never dropped a message — injector is silent")
	}
	if !sawResync {
		t.Error("chaos matrix never resynced — supervisor is silent")
	}
	if !sawNonFresh {
		t.Error("chaos matrix never left Fresh — degradation reporting is silent")
	}
}

// TestChaosReplayByteIdentical: two fault-armed monitors with equal seeds,
// plans and pushes replay chaos byte for byte — outputs, health trail, and
// the full bill including fault accounting.
func TestChaosReplayByteIdentical(t *testing.T) {
	const n, k, steps, seed = 24, 4, 80, 9
	e := eps.MustNew(1, 8)
	trace := mkTrace(n, steps, 3)
	plan := func() *topk.FaultPlan {
		return &topk.FaultPlan{Drop: 0.1, Dup: 0.05, Delay: 0.05, Crashes: chaosSchedules()[1]}
	}

	mk := func() *topk.Monitor {
		m, err := topk.New(k, topk.WrapEps(e), topk.WithNodes(n),
			topk.WithSeed(seed), topk.WithFaults(plan()))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	ta, tb := chaosRun(t, a, trace), chaosRun(t, b, trace)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("identical chaotic runs diverge:\na: %+v\nb: %+v", ta.cost, tb.cost)
	}
}

// TestChaosResetReplays: Reset(seed) on a fault-armed monitor rewinds the
// injector's RNG stream and the supervisor's state machine along with the
// engine, so the replay is byte-identical to the fresh run — and a
// different seed yields a different fault pattern.
func TestChaosResetReplays(t *testing.T) {
	const n, k, steps, seed = 24, 4, 80, 9
	e := eps.MustNew(1, 8)
	trace := mkTrace(n, steps, 3)
	plan := &topk.FaultPlan{Drop: 0.1, Dup: 0.05, Delay: 0.05, Crashes: chaosSchedules()[1]}

	m, err := topk.New(k, topk.WrapEps(e), topk.WithNodes(n),
		topk.WithSeed(seed), topk.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	fresh := chaosRun(t, m, trace)
	if err := m.Reset(seed); err != nil {
		t.Fatal(err)
	}
	if h := m.Health(); h.State != topk.Fresh || h.StaleFor != 0 || h.Err != nil {
		t.Fatalf("Health after Reset = %+v, want zero", h)
	}
	replay := chaosRun(t, m, trace)
	if !reflect.DeepEqual(fresh, replay) {
		t.Fatalf("reset chaotic run diverges from fresh:\nfresh:  %+v\nreplay: %+v", fresh.cost, replay.cost)
	}

	if err := m.Reset(seed + 1); err != nil {
		t.Fatal(err)
	}
	other := chaosRun(t, m, trace)
	if reflect.DeepEqual(fresh.cost, other.cost) {
		t.Fatal("different seeds produced identical chaotic bills")
	}
}

// TestZeroPlanFacadeTransparent: arming the fault layer with a zero plan
// changes nothing — outputs and the full bill are byte-identical to an
// unfaulted monitor, with every fault counter at zero and health pinned
// Fresh.
func TestZeroPlanFacadeTransparent(t *testing.T) {
	const n, k, steps, seed = 32, 4, 150, 42
	e := eps.MustNew(1, 8)
	trace := mkTrace(n, steps, 7)

	wantOuts, wantCost, wantEpochs, mw := facadeRun(t, trace, k, e, seed)
	defer mw.Close()
	gotOuts, gotCost, gotEpochs, mg := facadeRun(t, trace, k, e, seed,
		topk.WithFaults(&topk.FaultPlan{}))
	defer mg.Close()

	if !reflect.DeepEqual(wantOuts, gotOuts) {
		t.Error("outputs diverge under a zero fault plan")
	}
	if wantCost != gotCost {
		t.Errorf("bills diverge under a zero fault plan:\nbare:  %+v\narmed: %+v", wantCost, gotCost)
	}
	if wantEpochs != gotEpochs {
		t.Errorf("epochs diverge: bare=%d armed=%d", wantEpochs, gotEpochs)
	}
	if gotCost.DroppedMsgs|gotCost.DupMsgs|gotCost.Retries|gotCost.Resyncs|gotCost.StaleSteps != 0 {
		t.Errorf("zero plan billed faults: %+v", gotCost)
	}
	if h := mg.Health(); h.State != topk.Fresh || h.StaleFor != 0 || h.Err != nil {
		t.Errorf("zero-plan health = %+v, want Fresh", h)
	}
}

// TestDegradationEvents: a monitor that degrades delivers events carrying
// the non-Fresh health to subscribers, even when the top-k set itself is
// unchanged.
func TestDegradationEvents(t *testing.T) {
	const n, k, steps, seed = 24, 4, 80, 9
	e := eps.MustNew(1, 8)
	trace := mkTrace(n, steps, 3)

	m, err := topk.New(k, topk.WrapEps(e), topk.WithNodes(n),
		topk.WithSeed(seed),
		topk.WithFaults(&topk.FaultPlan{Drop: 0.3, Dup: 0.1, Crashes: chaosSchedules()[0]}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ev := m.Subscribe()

	trail := chaosRun(t, m, trace)
	var wantNonFresh bool
	for _, h := range trail.healths {
		if h.State != topk.Fresh {
			wantNonFresh = true
		}
	}
	if !wantNonFresh {
		t.Skip("run stayed fresh; degradation event check is moot at this seed")
	}

	var gotNonFresh bool
	for {
		select {
		case e := <-ev:
			if e.Health.State != topk.Fresh {
				gotNonFresh = true
			}
		default:
			if !gotNonFresh {
				t.Fatal("monitor degraded but no event carried a non-Fresh health")
			}
			return
		}
	}
}
