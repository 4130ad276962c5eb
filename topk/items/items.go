// Package items layers heavy-hitter ITEM monitoring on top of the node
// monitor: m logical items are observed as (node, item, count) events on n
// distributed nodes, each node summarises its local substream in a
// streaming sketch (internal/sketch), and the per-item sketch estimates
// feed a topk.Monitor whose "nodes" are the items — so the full machinery
// of the paper's ε-Top-k protocols (filters, violation handling, cost
// accounting, Check) tracks the top-k ITEMS end to end.
//
// # Aggregation choice: per-item, not per-(node,item)
//
// The monitored scalar for item j is the SUM over all n nodes of node i's
// sketch estimate of j, and the inner monitor runs over m item-streams.
// The alternative — one monitored stream per (node, item) pair — was
// rejected: its output is pair ids that still need a second aggregation
// to answer "which items are hot", it cannot see items that are globally
// heavy but locally light everywhere (each pair stream stays small), and
// its monitor state scales with n·m instead of m. With per-item
// aggregation the inner monitor's output IS the answer (item ids), and
// its size is independent of the node count.
//
// Each committed step, every node reports its sketch's current heavy
// list; the union of those lists (plus nothing else) is re-aggregated and
// pushed as one batch. Items outside every heavy list keep their previous
// pushed value — safe because counts are monotone non-decreasing, so a
// stale value only under-states an item that, by not being on any node's
// heavy list, is bounded below the per-node error bounds anyway. The
// recall harness (internal/stream/items + the E-table experiment)
// measures the end-to-end effect of both approximations — sketch error
// and stale non-candidates — against exact ground truth.
package items

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"topkmon/internal/sketch"
	"topkmon/topk"
)

// SketchKind selects the per-node summary algorithm.
type SketchKind int

const (
	// SpaceSaving (the default) never under-estimates and tracks a
	// per-item over-estimation error; the usual best choice for top-k.
	SpaceSaving SketchKind = iota
	// MisraGries never over-estimates; deterministic counterpart with the
	// dual one-sided guarantee.
	MisraGries
	// CountMin is the hashed sketch: probabilistic, never under-estimates,
	// with a keeper of the Track highest-estimate items for heavy lists.
	CountMin
)

// String implements fmt.Stringer.
func (k SketchKind) String() string {
	switch k {
	case SpaceSaving:
		return "space-saving"
	case MisraGries:
		return "misra-gries"
	case CountMin:
		return "count-min"
	default:
		return "SketchKind(?)"
	}
}

// Config parameterises New. Zero values get working defaults where noted.
type Config struct {
	// Nodes is the number of distributed nodes n (required, >= 1).
	Nodes int
	// Items is the item-universe size m (required, >= 1); the inner
	// monitor runs over m streams, so K <= Items.
	Items int
	// K is the size of the monitored top set (required, 1 <= K <= Items).
	K int
	// Epsilon is the inner monitor's approximation error.
	Epsilon topk.Epsilon
	// Sketch selects the per-node summary (default SpaceSaving).
	Sketch SketchKind
	// Capacity is the per-node counter budget for SpaceSaving and
	// MisraGries, and the keeper size for CountMin when Track is 0.
	// Default 64.
	Capacity int
	// Width and Depth size the CountMin table (defaults 256 and 4; see
	// sketch.CountMinWidth / CountMinDepth to derive them from eps/delta).
	Width, Depth int
	// Track is the CountMin keeper size (default Capacity).
	Track int
	// Seed is the root seed: it derives every per-node sketch seed and
	// the inner monitor's seed, so equal seeds replay bit for bit.
	// Default 1.
	Seed uint64
	// Monitor is appended to the inner topk.New options, after the ones
	// this package sets (nodes, seed) — e.g. topk.WithMonitor,
	// topk.WithFaults.
	Monitor []topk.Option
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Capacity == 0 {
		cfg.Capacity = 64
	}
	if cfg.Width == 0 {
		cfg.Width = 256
	}
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	if cfg.Track == 0 {
		cfg.Track = cfg.Capacity
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// nodeSeed derives node i's sketch seed from the root seed (splitmix64's
// golden-ratio stride, matching the repo's child-stream idiom).
func nodeSeed(seed uint64, i int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * (uint64(i) + 1))
}

// Monitor tracks the approximate top-k items of a distributed item
// stream. Observe stages events; Step commits everything observed since
// the last Step as ONE time step of the inner monitor. Methods are safe
// for one goroutine at a time.
type Monitor struct {
	mu sync.Mutex

	cfg   Config
	inner *topk.Monitor
	per   []sketch.Summary // one summary per node

	// Step scratch, all reused: per-node heavy lists, the candidate-item
	// stamp array (stamp[j] == round marks j a candidate this step), the
	// sorted candidate ids, and the update batch.
	heavyBuf   []sketch.Counter
	stamp      []uint64
	round      uint64
	candidates []int
	batch      []topk.Update

	closed bool
}

// New returns an item monitor for the k heaviest of cfg.Items items
// observed across cfg.Nodes nodes.
func New(c Config) (*Monitor, error) {
	cfg := c.withDefaults()
	if cfg.Nodes < 1 {
		return nil, errors.New("items: Nodes must be >= 1")
	}
	if cfg.Items < 1 {
		return nil, errors.New("items: Items must be >= 1")
	}
	if cfg.K < 1 || cfg.K > cfg.Items {
		return nil, fmt.Errorf("items: K = %d outside [1, Items = %d]", cfg.K, cfg.Items)
	}
	if cfg.Epsilon.IsZero() && len(cfg.Monitor) == 0 {
		// The inner default algorithm (Approx) requires ε > 0; callers who
		// really want the exact problem must select an exact algorithm via
		// cfg.Monitor explicitly.
		return nil, errors.New("items: Epsilon required (or select an exact algorithm via Monitor options)")
	}
	per := make([]sketch.Summary, cfg.Nodes)
	for i := range per {
		switch cfg.Sketch {
		case MisraGries:
			per[i] = sketch.NewMisraGries(cfg.Capacity)
		case CountMin:
			per[i] = sketch.NewCountMin(cfg.Width, cfg.Depth, cfg.Track, nodeSeed(cfg.Seed, i))
		default:
			per[i] = sketch.NewSpaceSaving(cfg.Capacity)
		}
	}
	opts := append([]topk.Option{topk.WithNodes(cfg.Items), topk.WithSeed(cfg.Seed)}, cfg.Monitor...)
	inner, err := topk.New(cfg.K, cfg.Epsilon, opts...)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:      cfg,
		inner:    inner,
		per:      per,
		heavyBuf: make([]sketch.Counter, 0, cfg.Track),
		stamp:    make([]uint64, cfg.Items),
		round:    1,
		batch:    make([]topk.Update, 0, cfg.Items),
	}, nil
}

// Observe stages count arrivals of item at node into the current step.
// Counts <= 0 are ignored (the sketch contract). Observe allocates
// nothing.
func (m *Monitor) Observe(node, item int, count int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return topk.ErrClosed
	}
	if node < 0 || node >= len(m.per) {
		return fmt.Errorf("items: node %d outside [0, %d)", node, len(m.per))
	}
	if item < 0 || item >= m.cfg.Items {
		return fmt.Errorf("items: item %d outside [0, %d)", item, m.cfg.Items)
	}
	m.per[node].Observe(uint64(item), count)
	return nil
}

// Step commits everything observed since the last Step as one time step:
// every node contributes its sketch's heavy list, the union of those
// lists is re-aggregated (value = sum over nodes of the node's estimate)
// and pushed to the inner monitor as one batch. Steps with no new heavy
// movement still advance time (the inner monitor's heartbeat semantics).
func (m *Monitor) Step() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return topk.ErrClosed
	}
	m.round++
	m.candidates = m.candidates[:0]
	for _, s := range m.per {
		m.heavyBuf = s.Heavy(m.cfg.Track, m.heavyBuf[:0])
		for _, c := range m.heavyBuf {
			j := int(c.Item)
			if m.stamp[j] != m.round {
				m.stamp[j] = m.round
				m.candidates = append(m.candidates, j)
			}
		}
	}
	// Ascending item order keeps the batch — and therefore the inner
	// monitor's replay — independent of the per-node iteration interleave.
	sort.Ints(m.candidates)
	m.batch = m.batch[:0]
	for _, j := range m.candidates {
		var sum int64
		for _, s := range m.per {
			est, _ := s.Estimate(uint64(j))
			sum += est
		}
		if sum > topk.MaxValue {
			sum = topk.MaxValue
		}
		m.batch = append(m.batch, topk.Update{Node: j, Value: sum})
	}
	return m.inner.UpdateBatch(m.batch)
}

// TopItems appends the current top-k ITEM ids to dst[:0] and returns it
// (the inner monitor's output — item ids are the inner node ids). Before
// the first Step it returns dst[:0].
func (m *Monitor) TopItems(dst []int) []int { return m.inner.TopK(dst) }

// Estimate returns the monitor's current aggregate estimate for one item
// — the sum of the per-node sketch estimates — and the summed error
// bound. It reads the sketches live (not the last pushed value).
func (m *Monitor) Estimate(item int) (est, bound int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if item < 0 || item >= m.cfg.Items {
		return 0, 0
	}
	for _, s := range m.per {
		e, b := s.Estimate(uint64(item))
		est += e
		bound += b
	}
	return est, bound
}

// Cost returns the inner monitor's communication bill. Sketch updates are
// node-local (free in the paper's model); what is billed is the filter
// protocol over the m aggregated item streams.
func (m *Monitor) Cost() topk.Cost { return m.inner.Cost() }

// Check verifies the inner monitor's ε-Top-k property over the pushed
// aggregates (the no-silent-wrong-answers referee). Sketch-vs-truth error
// is measured separately by the recall harness.
func (m *Monitor) Check() error { return m.inner.Check() }

// Steps returns the number of committed steps.
func (m *Monitor) Steps() int64 { return m.inner.Steps() }

// N returns the number of distributed nodes n.
func (m *Monitor) N() int { return len(m.per) }

// Items returns the item-universe size m.
func (m *Monitor) Items() int { return m.cfg.Items }

// K returns the size of the monitored top set.
func (m *Monitor) K() int { return m.cfg.K }

// Reset rewinds the monitor — sketches, inner monitor, and scratch — to
// the state a fresh New with the given seed would produce, keeping every
// buffer. A reset monitor replays a fresh monitor's run bit for bit.
func (m *Monitor) Reset(seed uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return topk.ErrClosed
	}
	if err := m.inner.Reset(seed); err != nil {
		return err
	}
	m.cfg.Seed = seed
	for i, s := range m.per {
		s.Reset(nodeSeed(seed, i))
	}
	clear(m.stamp)
	m.round = 1
	return nil
}

// Close releases the monitor (idempotent; reads stay valid, mutations
// return topk.ErrClosed).
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.inner.Close()
}
