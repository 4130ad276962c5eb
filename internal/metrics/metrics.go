// Package metrics provides the communication accounting used throughout the
// reproduction: message counters by kind and by channel (node→server,
// server→node unicast, broadcast), per-step round tracking for the model's
// polylog-round constraint, bit-size high-water marks, and summary
// statistics with text-table and CSV rendering for the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Channel classifies which primitive carried a message; each costs 1 unit.
type Channel uint8

const (
	// NodeToServer is a message from a node to the server.
	NodeToServer Channel = iota
	// ServerToNode is a unicast from the server to one node.
	ServerToNode
	// Broadcast is a server broadcast received by all nodes.
	Broadcast
	numChannels
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	switch c {
	case NodeToServer:
		return "node→server"
	case ServerToNode:
		return "server→node"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("Channel(%d)", uint8(c))
	}
}

// Counters accumulates communication cost. The zero value is ready to use.
type Counters struct {
	byChannel [numChannels]int64
	byKind    map[string]int64

	// Round accounting: the model allows polylogarithmically many rounds
	// of communication between consecutive time steps.
	roundsThisStep int64
	maxRoundsStep  int64
	steps          int64

	// maxBits tracks the largest message observed, for the size bound.
	maxBits int

	// indexFallbacks counts predicate-routed primitives (Sweep, Collect)
	// that had to take the full node scan because no index structure can
	// serve the predicate: tag predicates (HasTag — matches depend on
	// node-local tags the server does not index) and domain-covering value
	// intervals (e.g. AboveActive(-1)), where routing could prune nothing.
	// Violation sweeps no longer fall back: they are resolved from the
	// engine's violator set (internal/lockstep), so a quiet-step run
	// holds this counter flat (asserted by the quiet-step regression
	// tests). It is engine-side work accounting, not message cost, and the
	// decision is made from the predicate alone.
	indexFallbacks int64

	// Fault accounting (internal/faults and the topk facade's recovery
	// supervisor). These five counters stay zero on a fault-free run: the
	// engines themselves never touch them — the fault injector bills
	// droppedMsgs/dupMsgs/retries at the wrapped message layer, and the
	// facade bills resyncs/staleSteps from its recovery loop. Like
	// indexFallbacks they are layered accounting, not model message cost,
	// and replay identically under equal seeds and fault plans.
	droppedMsgs int64
	dupMsgs     int64
	retries     int64
	resyncs     int64
	staleSteps  int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{byKind: make(map[string]int64)}
}

// Reset returns the counters to the empty state while retaining the kind
// map's storage, so an engine Reset leaves no garbage behind. A reset
// counter set is indistinguishable from NewCounters() through the public
// API.
func (c *Counters) Reset() {
	c.byChannel = [numChannels]int64{}
	clear(c.byKind)
	c.roundsThisStep = 0
	c.maxRoundsStep = 0
	c.steps = 0
	c.maxBits = 0
	c.indexFallbacks = 0
	c.droppedMsgs = 0
	c.dupMsgs = 0
	c.retries = 0
	c.resyncs = 0
	c.staleSteps = 0
}

// Count records one message on channel c of the named kind with the given
// accounted bit size.
func (c *Counters) Count(ch Channel, kind string, bitSize int) {
	c.byChannel[ch]++
	if c.byKind == nil {
		c.byKind = make(map[string]int64)
	}
	c.byKind[kind]++
	if bitSize > c.maxBits {
		c.maxBits = bitSize
	}
}

// Rounds records that the current time step consumed r additional protocol
// rounds.
func (c *Counters) Rounds(r int64) { c.roundsThisStep += r }

// IndexFallback records that one predicate-routed primitive fell back to the
// full node scan because its predicate carries no usable value interval.
func (c *Counters) IndexFallback() { c.indexFallbacks++ }

// IndexFallbacks returns how many predicate-routed primitives took the
// full-scan fallback since construction or the last Reset.
func (c *Counters) IndexFallbacks() int64 { return c.indexFallbacks }

// DroppedMsg records that the fault layer lost one message of the given
// kind after exhausting any retries.
func (c *Counters) DroppedMsg() { c.droppedMsgs++ }

// DroppedMsgs returns how many messages the fault layer lost for good.
func (c *Counters) DroppedMsgs() int64 { return c.droppedMsgs }

// DupMsg records that the fault layer delivered one message twice.
func (c *Counters) DupMsg() { c.dupMsgs++ }

// DupMsgs returns how many duplicate deliveries the fault layer injected.
func (c *Counters) DupMsgs() int64 { return c.dupMsgs }

// Retry records one redelivery attempt of the reliability sublayer.
func (c *Counters) Retry() { c.retries++ }

// Retries returns how many redelivery attempts the reliability sublayer
// has made (successful or not).
func (c *Counters) Retries() int64 { return c.retries }

// Resync records one epoch resync: the server re-broadcasting filters and
// re-running the sweep after detecting divergence.
func (c *Counters) Resync() { c.resyncs++ }

// Resyncs returns how many epoch resyncs the recovery supervisor ran.
func (c *Counters) Resyncs() int64 { return c.resyncs }

// StaleStep records one committed step whose published output was not
// validated fresh (the monitor was degraded or still recovering).
func (c *Counters) StaleStep() { c.staleSteps++ }

// StaleSteps returns how many committed steps ended without a
// validated-fresh output.
func (c *Counters) StaleSteps() int64 { return c.staleSteps }

// EndStep closes the current time step's round accounting.
func (c *Counters) EndStep() {
	if c.roundsThisStep > c.maxRoundsStep {
		c.maxRoundsStep = c.roundsThisStep
	}
	c.roundsThisStep = 0
	c.steps++
}

// Total returns the total number of messages across all channels.
func (c *Counters) Total() int64 {
	var t int64
	for _, v := range c.byChannel {
		t += v
	}
	return t
}

// ByChannel returns the count on one channel.
func (c *Counters) ByChannel(ch Channel) int64 { return c.byChannel[ch] }

// ByKind returns the count of one message kind.
func (c *Counters) ByKind(kind string) int64 { return c.byKind[kind] }

// Kinds returns all recorded kinds, sorted.
func (c *Counters) Kinds() []string {
	ks := make([]string, 0, len(c.byKind))
	for k := range c.byKind {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// MaxRoundsPerStep returns the largest number of protocol rounds consumed by
// any single time step.
func (c *Counters) MaxRoundsPerStep() int64 {
	if c.roundsThisStep > c.maxRoundsStep {
		return c.roundsThisStep
	}
	return c.maxRoundsStep
}

// MaxBits returns the largest accounted message size seen, in bits.
func (c *Counters) MaxBits() int { return c.maxBits }

// Steps returns the number of completed time steps.
func (c *Counters) Steps() int64 { return c.steps }

// Snapshot returns a copy of the counters for later diffing.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		ByChannel:      c.byChannel,
		ByKind:         make(map[string]int64, len(c.byKind)),
		MaxRounds:      c.MaxRoundsPerStep(),
		MaxBits:        c.maxBits,
		IndexFallbacks: c.indexFallbacks,
		DroppedMsgs:    c.droppedMsgs,
		DupMsgs:        c.dupMsgs,
		Retries:        c.retries,
		Resyncs:        c.resyncs,
		StaleSteps:     c.staleSteps,
	}
	for k, v := range c.byKind {
		s.ByKind[k] = v
	}
	return s
}

// Snapshot is an immutable copy of counter state.
type Snapshot struct {
	ByChannel [numChannels]int64
	ByKind    map[string]int64
	MaxRounds int64
	MaxBits   int
	// IndexFallbacks is the engine-side full-scan count (see
	// Counters.IndexFallback); it is work accounting, not message cost.
	IndexFallbacks int64
	// Fault accounting (see the matching Counters methods): zero on a
	// fault-free run.
	DroppedMsgs int64
	DupMsgs     int64
	Retries     int64
	Resyncs     int64
	StaleSteps  int64
}

// Total returns total messages in the snapshot.
func (s Snapshot) Total() int64 {
	var t int64
	for _, v := range s.ByChannel {
		t += v
	}
	return t
}

// Sub returns the message-count difference s - o (channel- and kind-wise).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := Snapshot{
		ByKind:         make(map[string]int64),
		MaxRounds:      s.MaxRounds,
		MaxBits:        s.MaxBits,
		IndexFallbacks: s.IndexFallbacks - o.IndexFallbacks,
		DroppedMsgs:    s.DroppedMsgs - o.DroppedMsgs,
		DupMsgs:        s.DupMsgs - o.DupMsgs,
		Retries:        s.Retries - o.Retries,
		Resyncs:        s.Resyncs - o.Resyncs,
		StaleSteps:     s.StaleSteps - o.StaleSteps,
	}
	for i := range s.ByChannel {
		d.ByChannel[i] = s.ByChannel[i] - o.ByChannel[i]
	}
	for k, v := range s.ByKind {
		d.ByKind[k] = v - o.ByKind[k]
	}
	return d
}

// Table renders aligned text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Column returns the rendered cells of column i, or nil if out of range.
func (t *Table) Column(i int) []string {
	if i < 0 || i >= len(t.Headers) {
		return nil
	}
	out := make([]string, 0, len(t.rows))
	for _, row := range t.rows {
		if i < len(row) {
			out = append(out, row[i])
		} else {
			out = append(out, "")
		}
	}
	return out
}

// ColumnFloats parses column i as float64s; ok is false if any cell fails.
func (t *Table) ColumnFloats(i int) (vals []float64, ok bool) {
	cells := t.Column(i)
	if cells == nil {
		return nil, false
	}
	vals = make([]float64, len(cells))
	for j, c := range cells {
		v, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
		if err != nil {
			return nil, false
		}
		vals[j] = v
	}
	return vals, true
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (no quoting needed for our data).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
