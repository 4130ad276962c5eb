package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/lockstep"
	"topkmon/internal/protocol"
	streamitems "topkmon/internal/stream/items"
	"topkmon/topk"
	"topkmon/topk/items"
)

// itemsTrace generates the items workload's steps from a seed: a zipfian
// stream over the item universe, each event one arrival on a random node.
// An event is packed as node<<24 | item, so a long trace stays small.
func itemsTrace(w Workload, seed uint64, steps int) [][]uint32 {
	g := streamitems.NewZipf(w.Nodes, w.Items, w.EventsPerStep, w.ZipfS, seed)
	out := make([][]uint32, steps)
	var buf []streamitems.Event
	for t := range out {
		buf = g.Next(t, buf[:0])
		out[t] = make([]uint32, len(buf))
		for i, ev := range buf {
			out[t][i] = uint32(ev.Node)<<24 | uint32(ev.Item)
		}
	}
	return out
}

func unpack(e uint32) (node, item int) { return int(e >> 24), int(e & 0xffffff) }

// newItemsMonitor builds the item monitor; opts reach the inner topk
// monitor (the traced run injects its decorators there).
func newItemsMonitor(w Workload, opts ...topk.Option) (*items.Monitor, error) {
	e, err := w.epsilon()
	if err != nil {
		return nil, err
	}
	return items.New(items.Config{
		Nodes: w.Nodes, Items: w.Items, K: w.K, Epsilon: e,
		Sketch: items.SpaceSaving, Capacity: w.Capacity, Seed: 1, Monitor: opts,
	})
}

// itemsStep observes one step's events and commits it.
func itemsStep(m *items.Monitor, evs []uint32) error {
	for _, e := range evs {
		node, item := unpack(e)
		if err := m.Observe(node, item, 1); err != nil {
			return err
		}
	}
	return m.Step()
}

// itemsSetupRepeats is how many times a set-up round constructs the item
// monitor. One construction takes a fraction of a millisecond, so many
// are timed. A run makes two rounds, before and after the timed loop, so
// setup_s, the median of both, samples the shared host at two times.
const itemsSetupRepeats = 150

// itemsSetup runs one set-up round and returns its construction times.
// Each construction starts from a freshly collected heap, so no
// collection cycle lands inside it, and is closed, untimed, before the
// next.
func itemsSetup(w Workload) ([]float64, error) {
	setups := make([]float64, itemsSetupRepeats)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		m, err := newItemsMonitor(w)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		m.Close()
	}
	return setups, nil
}

// itemsOutputs renders the monitor's observable state: top items and cost.
func itemsOutputs(m *items.Monitor) []byte {
	b, _ := json.Marshal(struct { // plain values always encode
		Top  []int
		Cost topk.Cost
	}{m.TopItems(nil), m.Cost()})
	return b
}

// runItems drives topk/items in-process on one goroutine: each step
// observes its events and commits. The first FixedSteps steps fix the
// message count; the run then continues, cycling the trace, until the
// timed window ends.
func runItems(w Workload, seed uint64, seconds float64, rep *report) error {
	if rep.traced {
		return runItemsTraced(w, itemsTrace(w, seed, w.FixedSteps), rep)
	}
	// The first set-up round runs before the trace is generated, so its
	// garbage is collected from a small heap and does not raise the peak
	// RSS.
	setups, err := itemsSetup(w)
	if err != nil {
		return err
	}
	runtime.GC()
	steps := itemsTrace(w, seed, w.FixedSteps)
	m, err := newItemsMonitor(w)
	if err != nil {
		return err
	}
	defer m.Close()

	truth := streamitems.NewTruth(w.Items)
	var lat []sample
	var events int64
	var msgs int64
	cpu0 := cpuNow()
	start := monoNow()
	end := start + int64(seconds*1e9)
	for n := 0; n < len(steps) || monoNow() < end; n++ {
		evs := steps[n%len(steps)]
		t0 := monoNow()
		if err := itemsStep(m, evs); err != nil {
			return err
		}
		lat = append(lat, sample{t0, float64(monoNow()-t0) / 1e6})
		events += int64(len(evs))
		if n == len(steps)-1 {
			msgs = m.Cost().Messages
			rep.e2e("msgs_per_update", float64(msgs)/float64(events), "msgs")
		}
	}
	elapsed := float64(monoNow()-start) / 1e9
	cpu := cpuNow() - cpu0
	rep.attempted = len(lat)
	for n := range lat {
		for _, e := range steps[n%len(steps)] {
			_, item := unpack(e)
			truth.Observe(item, 1)
		}
	}

	if err := m.Check(); err != nil {
		return fmt.Errorf("items: referee check failed: %w", err)
	}
	recall := truth.RecallAt(w.K, m.TopItems(nil))
	rep.extra("recall_at_k", recall, "ratio")
	if recall < 0.9 {
		return fmt.Errorf("items: recall@%d = %.3f < 0.9", w.K, recall)
	}

	tail := computeTail(lat, start, int64(w.TailWindowS*1e9))
	rep.extra("write_p50_ms", medianOf(lat), "ms")
	rep.extra("write_tail_ms", tail.value, "ms")
	rep.note("items: a write is one step (%d observed events + Step); write_tail_ms is p%g, %d windows of >= %d steps",
		w.EventsPerStep, tail.percentile, tail.windows, tail.perWindow)
	rep.e2e("server_cpu_us_per_update", float64(cpu)/1e3/float64(events), "us")
	rep.extra("events_per_s", float64(events)/elapsed, "events/s")
	rep.extra("fail_frac", 0, "ratio")
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return err
	}
	rep.e2e("rss_mb", rss, "MiB")
	more, err := itemsSetup(w)
	if err != nil {
		return err
	}
	rep.e2e("setup_s", median(append(setups, more...)), "s")
	return nil
}

// runItemsTraced replays the steps through an item monitor whose inner
// topk monitor runs on the timing decorators and through a plain twin,
// step by step, alternating which goes first; their outputs must match
// byte for byte.
func runItemsTraced(w Workload, steps [][]uint32, rep *report) error {
	if w.TraceRequests > 0 && len(steps) > w.TraceRequests {
		steps = steps[:w.TraceRequests]
	}
	num, den, err := w.epsParts()
	if err != nil {
		return err
	}
	e, err := eps.New(num, den)
	if err != nil {
		return err
	}
	plain, err := newItemsMonitor(w)
	if err != nil {
		return err
	}
	defer plain.Close()
	st := &engineStats{}
	var tp *timedProtocol
	traced, err := newItemsMonitor(w,
		topk.WithClusterEngine(&timedEngine{e: lockstep.New(w.Items, 1), st: st}),
		topk.WithMonitorFunc(func(c cluster.Cluster) protocol.Monitor {
			tp = &timedProtocol{m: protocol.NewApprox(c, w.K, e), st: st}
			return tp
		}))
	if err != nil {
		return err
	}
	defer traced.Close()

	floor := cpuFloor()
	var plainNs, observeNs, stepNs, cpuNs, events int64
	runPlain := func(evs []uint32) error {
		t0 := monoNow()
		err := itemsStep(plain, evs)
		plainNs += monoNow() - t0
		return err
	}
	runTraced := func(evs []uint32) error {
		c0 := cpuNow()
		a := monoNow()
		for _, e := range evs {
			node, item := unpack(e)
			if err := traced.Observe(node, item, 1); err != nil {
				return err
			}
		}
		b := monoNow()
		if err := traced.Step(); err != nil {
			return err
		}
		c := monoNow()
		cpuNs += cpuNow() - c0 - floor
		observeNs += b - a
		stepNs += c - b
		return nil
	}
	for n, evs := range steps {
		first, second := runPlain, runTraced
		if n%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(evs); err != nil {
			return err
		}
		if err := second(evs); err != nil {
			return err
		}
		events += int64(len(evs))
	}
	rep.attempted = len(steps)
	if !bytes.Equal(itemsOutputs(plain), itemsOutputs(traced)) {
		return fmt.Errorf("items: decorated monitor differs from the plain one")
	}
	cost := traced.Cost()
	n := float64(len(steps))
	var calls int64
	for _, c := range st.calls {
		calls += c
	}
	protoSelf := st.protoNs - st.protoEg
	var eng int64
	for _, ns := range st.ns {
		eng += ns
	}
	reportEngine(rep, st, protoSelf, tp.Epochs(), cost.Messages, cost.MaxRoundsPerStep, calls, st.reports, n)
	rep.layer("items.observe_ns_per_event", float64(observeNs)/float64(events), "ns")
	rep.layer("items.step_us", float64(stepNs)/1e3/n, "us")
	rep.layer("items.msgs_per_step", float64(cost.Messages)/n, "msgs")
	rep.layer("trace.inprocess_us_per_req", float64(cpuNs)/1e3/n, "us")
	rep.layer("trace.overhead_frac", float64(observeNs+stepNs-plainNs)/float64(plainNs), "ratio")
	rep.note("items: a request is one step; step %.2f us = sketch/aggregation %.2f + protocol %.2f + engine %.2f us; observe %.2f us per step; in-process CPU %.2f us per step",
		float64(stepNs)/1e3/n, float64(stepNs-protoSelf-eng)/1e3/n, float64(protoSelf)/1e3/n, float64(eng)/1e3/n,
		float64(observeNs)/1e3/n, float64(cpuNs)/1e3/n)
	return nil
}
