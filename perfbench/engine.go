package main

import (
	"fmt"

	"topkmon/internal/cluster"
	"topkmon/internal/eps"
	"topkmon/internal/filter"
	"topkmon/internal/lockstep"
	"topkmon/internal/metrics"
	"topkmon/internal/protocol"
	"topkmon/internal/rngx"
	"topkmon/internal/wire"
	"topkmon/topk"
)

// newTracedMonitor builds tenant i's monitor on the timing decorators:
// the lockstep engine and the approx protocol topkd builds for it, each
// wrapped so its calls are timed into st.
func newTracedMonitor(w Workload, i int, st *engineStats) (*topk.Monitor, error) {
	if w.Monitor != "approx" {
		return nil, fmt.Errorf("traced run supports monitor approx, not %q", w.Monitor)
	}
	num, den, err := w.epsParts()
	if err != nil {
		return nil, err
	}
	e, err := eps.New(num, den)
	if err != nil {
		return nil, err
	}
	return newTenantMonitor(w, i,
		topk.WithClusterEngine(&timedEngine{e: lockstep.New(w.Nodes, tenantSeed(i)), st: st}),
		topk.WithMonitorFunc(func(c cluster.Cluster) protocol.Monitor {
			return &timedProtocol{m: protocol.NewApprox(c, w.K, e), st: st}
		}))
}

// Engine call classes, one span name each.
const (
	engAdvance = iota // Advance, EndStep: installing a step's values
	engSweep          // Sweep, DetectViolation: EXISTENCE rounds
	engCollect        // Collect
	engMaxFind        // MaxFindInit/Raise/Exclude
	engSend           // BroadcastRule, SetFilter, SetTagFilter, Probe
	numEngClasses
)

var engClassNames = [numEngClasses]string{"advance", "sweep", "collect", "maxfind", "send"}

// engineStats accumulates the time and calls of every engine class, and
// the protocol's own time around Start/HandleStep. The traced replay
// reads and clears it around each facade call.
type engineStats struct {
	ns      [numEngClasses]int64
	calls   [numEngClasses]int64
	reports int64
	protoNs int64 // wall time inside Start/HandleStep, engine calls included
	inProto bool
	protoEg int64 // engine ns spent inside Start/HandleStep
}

func (s *engineStats) add(class int, t0 int64) {
	d := monoNow() - t0
	s.ns[class] += d
	s.calls[class]++
	if s.inProto {
		s.protoEg += d
	}
}

// timedEngine is a cluster.Engine decorator: it forwards every call to
// the wrapped engine unchanged and times the ones that move information
// or install a step. Accessors (N, Counters, Rand, Values…) forward
// untimed.
type timedEngine struct {
	e  cluster.Engine
	st *engineStats
}

func (t *timedEngine) N() int                      { return t.e.N() }
func (t *timedEngine) Counters() *metrics.Counters { return t.e.Counters() }
func (t *timedEngine) Rand() *rngx.Source          { return t.e.Rand() }
func (t *timedEngine) Reset(seed uint64)           { t.e.Reset(seed) }

func (t *timedEngine) BroadcastRule(rule *wire.FilterRule) {
	t0 := monoNow()
	t.e.BroadcastRule(rule)
	t.st.add(engSend, t0)
}

func (t *timedEngine) SetFilter(id int, iv filter.Interval) {
	t0 := monoNow()
	t.e.SetFilter(id, iv)
	t.st.add(engSend, t0)
}

func (t *timedEngine) SetTagFilter(id int, tag wire.Tag, iv filter.Interval) {
	t0 := monoNow()
	t.e.SetTagFilter(id, tag, iv)
	t.st.add(engSend, t0)
}

func (t *timedEngine) Probe(id int) wire.Report {
	t0 := monoNow()
	r := t.e.Probe(id)
	t.st.add(engSend, t0)
	t.st.reports++
	return r
}

func (t *timedEngine) Collect(p wire.Pred) []wire.Report {
	t0 := monoNow()
	r := t.e.Collect(p)
	t.st.add(engCollect, t0)
	t.st.reports += int64(len(r))
	return r
}

func (t *timedEngine) Sweep(p wire.Pred) []wire.Report {
	t0 := monoNow()
	r := t.e.Sweep(p)
	t.st.add(engSweep, t0)
	t.st.reports += int64(len(r))
	return r
}

func (t *timedEngine) DetectViolation() (wire.Report, bool) {
	t0 := monoNow()
	r, ok := t.e.DetectViolation()
	t.st.add(engSweep, t0)
	if ok {
		t.st.reports++
	}
	return r, ok
}

func (t *timedEngine) MaxFindInit(floor int64, reset bool) {
	t0 := monoNow()
	t.e.MaxFindInit(floor, reset)
	t.st.add(engMaxFind, t0)
}

func (t *timedEngine) MaxFindRaise(holder int, best int64) {
	t0 := monoNow()
	t.e.MaxFindRaise(holder, best)
	t.st.add(engMaxFind, t0)
}

func (t *timedEngine) MaxFindExclude(id int) {
	t0 := monoNow()
	t.e.MaxFindExclude(id)
	t.st.add(engMaxFind, t0)
}

func (t *timedEngine) Values() []int64                { return t.e.Values() }
func (t *timedEngine) ValuesInto(dst []int64) []int64 { return t.e.ValuesInto(dst) }
func (t *timedEngine) Filters() []filter.Interval     { return t.e.Filters() }
func (t *timedEngine) Tags() []wire.Tag               { return t.e.Tags() }
func (t *timedEngine) FiltersInto(dst []filter.Interval) []filter.Interval {
	return t.e.FiltersInto(dst)
}

func (t *timedEngine) Advance(values []int64) {
	t0 := monoNow()
	t.e.Advance(values)
	t.st.add(engAdvance, t0)
}

func (t *timedEngine) EndStep() {
	t0 := monoNow()
	t.e.EndStep()
	t.st.add(engAdvance, t0)
}

// timedProtocol wraps a protocol.Monitor and times Start and HandleStep,
// the protocol's whole share of a step; the engine calls made inside are
// subtracted to give its self time.
type timedProtocol struct {
	m  protocol.Monitor
	st *engineStats
}

func (t *timedProtocol) Name() string  { return t.m.Name() }
func (t *timedProtocol) Output() []int { return t.m.Output() }
func (t *timedProtocol) Epochs() int64 { return t.m.Epochs() }
func (t *timedProtocol) Start()        { t.timed(t.m.Start) }
func (t *timedProtocol) HandleStep()   { t.timed(t.m.HandleStep) }
func (t *timedProtocol) timed(f func()) {
	t0 := monoNow()
	t.st.inProto = true
	f()
	t.st.inProto = false
	t.st.protoNs += monoNow() - t0
}
