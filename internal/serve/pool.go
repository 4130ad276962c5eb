package serve

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"topkmon/internal/wal"
	"topkmon/topk"
)

// Errors returned by the pool; the handlers map them to HTTP statuses.
var (
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	ErrTenantExists  = errors.New("serve: tenant already exists")
	ErrTooManyTenant = errors.New("serve: tenant limit reached")
	ErrBadName       = errors.New("serve: invalid tenant name")
)

// CrashConfig schedules one node crash window, mirroring topk.Crash.
type CrashConfig struct {
	Node  int   `json:"node"`
	From  int64 `json:"from"`
	Until int64 `json:"until"`
}

// FaultConfig arms a tenant's deterministic fault layer, mirroring
// topk.FaultPlan field for field.
type FaultConfig struct {
	Drop    float64       `json:"drop,omitempty"`
	Dup     float64       `json:"dup,omitempty"`
	Delay   float64       `json:"delay,omitempty"`
	Retries int           `json:"retries,omitempty"`
	Crashes []CrashConfig `json:"crashes,omitempty"`
}

// plan converts to the facade's fault plan.
func (f *FaultConfig) plan() *topk.FaultPlan {
	if f == nil {
		return nil
	}
	p := &topk.FaultPlan{Drop: f.Drop, Dup: f.Dup, Delay: f.Delay, Retries: f.Retries}
	for _, c := range f.Crashes {
		p.Crashes = append(p.Crashes, topk.Crash{Node: c.Node, From: c.From, Until: c.Until})
	}
	return p
}

// Config describes one tenant's monitor — the JSON body of a tenant-create
// request, and (fully populated) the server's per-tenant defaults. Zero
// fields inherit the server default; note that seed 0 therefore means "the
// default seed", not seed zero.
type Config struct {
	Nodes   int          `json:"nodes,omitempty"`
	K       int          `json:"k,omitempty"`
	Eps     string       `json:"eps,omitempty"`     // "p/q", e.g. "1/8"
	Monitor string       `json:"monitor,omitempty"` // algorithm name, e.g. "approx"
	Seed    uint64       `json:"seed,omitempty"`
	Faults  *FaultConfig `json:"faults,omitempty"`
}

// withDefaults fills zero fields from d.
func (c Config) withDefaults(d Config) Config {
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.K == 0 {
		c.K = d.K
	}
	if c.Eps == "" {
		c.Eps = d.Eps
	}
	if c.Monitor == "" {
		c.Monitor = d.Monitor
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Faults == nil {
		c.Faults = d.Faults
	}
	return c
}

// baseDefaults is the root of the default chain: a server constructed with
// a partial defaults Config still has every field populated.
var baseDefaults = Config{
	Nodes:   64,
	K:       4,
	Eps:     "1/8",
	Monitor: "approx",
	Seed:    1,
}

// build constructs the tenant monitor. c must be fully populated
// (withDefaults applied).
func (c Config) build() (*topk.Monitor, error) {
	e, err := topk.ParseEpsilon(c.Eps)
	if err != nil {
		return nil, err
	}
	algo, err := topk.ParseAlgorithm(c.Monitor)
	if err != nil {
		return nil, err
	}
	return topk.New(c.K, e,
		topk.WithNodes(c.Nodes),
		topk.WithMonitor(algo),
		topk.WithSeed(c.Seed),
		topk.WithFaults(c.Faults.plan()))
}

// Tenant is one entry of the pool: an immutable name/config pair and the
// monitor serving it. The monitor carries its own mutex; the pool never
// holds its lock across monitor calls, so one tenant's slow operation
// (Reset, Close, a large batch) cannot stall another tenant's ingest.
//
// The unexported fields are the durability state (see durable.go): the
// tenant mutex serializes COMMITTED mutations (journal order == commit
// order) and is what graceful shutdown takes to drain in-flight updates.
// On a volatile pool (no data dir) log is nil and the commit methods
// reduce to plain monitor calls under the same mutex.
type Tenant struct {
	Name string
	Cfg  Config
	Mon  *topk.Monitor

	mu        sync.Mutex        // serializes journal+commit; drains on close
	store     *wal.Store        // nil on a volatile pool
	log       *wal.Log          // nil on a volatile pool or after close
	epoch     uint64            // current config epoch (bumped by reset)
	seed      uint64            // seed of the current epoch
	seqs      map[string]uint64 // exactly-once watermark: client → highest seq
	sinceSnap int               // committed steps since the last snapshot
}

// nameRE bounds tenant names: URL-safe, non-empty, short. "tenants" is
// reserved for the listing route.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// ValidName reports whether s is an acceptable tenant name.
func ValidName(s string) bool {
	return s != "tenants" && nameRE.MatchString(s)
}

// Pool owns the tenant map: lookup under RLock, create/delete under a
// short Lock covering only the map mutation. Monitors are constructed and
// closed OUTSIDE the pool lock.
type Pool struct {
	defaults Config
	lazy     bool
	max      int
	store    *wal.Store // nil = volatile pool (no durability)

	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// NewPool returns a pool whose lazily-created tenants use defaults (zero
// fields fall back to the package baseline: 64 nodes, k=4, ε=1/8,
// approx, seed 1). lazy enables creation on first ingest; max
// bounds the tenant count (0 = unlimited). A non-nil store makes every
// tenant durable: creations and accepted batches are journaled, and the
// pool takes ownership of the store (Pool.Close closes it).
func NewPool(defaults Config, lazy bool, max int, store *wal.Store) *Pool {
	return &Pool{
		defaults: defaults.withDefaults(baseDefaults),
		lazy:     lazy,
		max:      max,
		store:    store,
		tenants:  make(map[string]*Tenant),
	}
}

// Defaults returns the fully-populated per-server default config.
func (p *Pool) Defaults() Config { return p.defaults }

// Get returns the named tenant, or ErrUnknownTenant.
func (p *Pool) Get(name string) (*Tenant, error) {
	p.mu.RLock()
	t := p.tenants[name]
	p.mu.RUnlock()
	if t == nil {
		return nil, ErrUnknownTenant
	}
	return t, nil
}

// GetOrCreate returns the named tenant, lazily creating it from the server
// defaults when the pool allows lazy creation. The monitor is built outside
// the pool lock; when two ingests race on a fresh tenant, both build
// (identical, both from defaults) and the loser's monitor is closed.
func (p *Pool) GetOrCreate(name string) (*Tenant, error) {
	if t, err := p.Get(name); err == nil {
		return t, nil
	}
	if !p.lazy {
		return nil, ErrUnknownTenant
	}
	t, err := p.Create(name, Config{})
	if errors.Is(err, ErrTenantExists) {
		return p.Get(name)
	}
	return t, err
}

// Create builds a tenant from cfg (zero fields inherit the server
// defaults) and inserts it, failing with ErrTenantExists / ErrTooManyTenant
// / ErrBadName without side effects.
func (p *Pool) Create(name string, cfg Config) (*Tenant, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	// Cheap pre-checks before paying for a monitor (re-checked on insert).
	p.mu.RLock()
	_, exists := p.tenants[name]
	full := p.max > 0 && len(p.tenants) >= p.max
	p.mu.RUnlock()
	if exists {
		return nil, ErrTenantExists
	}
	if full {
		return nil, ErrTooManyTenant
	}

	cfg = cfg.withDefaults(p.defaults)
	mon, err := cfg.build()
	if err != nil {
		return nil, err
	}
	t := &Tenant{Name: name, Cfg: cfg, Mon: mon, store: p.store, seed: cfg.Seed}

	// The tenant mutex is held across the map insert and the create-record
	// journaling below, so a racing ingest that wins the map lookup still
	// blocks until the tenant is durably created (or rolled back).
	t.mu.Lock()
	defer t.mu.Unlock()

	p.mu.Lock()
	if _, ok := p.tenants[name]; ok {
		p.mu.Unlock()
		mon.Close()
		return nil, ErrTenantExists
	}
	if p.max > 0 && len(p.tenants) >= p.max {
		p.mu.Unlock()
		mon.Close()
		return nil, ErrTooManyTenant
	}
	p.tenants[name] = t
	p.mu.Unlock()

	if p.store != nil {
		if err := t.journalCreate(); err != nil {
			p.mu.Lock()
			delete(p.tenants, name)
			p.mu.Unlock()
			mon.Close()
			return nil, err
		}
	}
	return t, nil
}

// Delete removes the tenant, journals the tombstone, deletes its files,
// and closes its monitor (outside the pool lock — in-flight requests
// holding the *Tenant see ErrClosed from the monitor, never a torn state;
// the tenant mutex drains any in-flight commit before the log closes).
func (p *Pool) Delete(name string) error {
	p.mu.Lock()
	t := p.tenants[name]
	delete(p.tenants, name)
	p.mu.Unlock()
	if t == nil {
		return ErrUnknownTenant
	}
	return t.closeDurable()
}

// List returns a snapshot of the tenants, sorted by name.
func (p *Pool) List() []*Tenant {
	p.mu.RLock()
	out := make([]*Tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		out = append(out, t)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close quiesces every tenant — each tenant mutex is taken, so in-flight
// commits finish — then fsyncs and closes logs, monitors, and the store.
// Durable files stay on disk for the next boot.
func (p *Pool) Close() {
	p.mu.Lock()
	ts := p.tenants
	p.tenants = make(map[string]*Tenant)
	p.mu.Unlock()
	for _, t := range ts {
		t.closeQuiesced()
	}
	if p.store != nil {
		p.store.Close()
	}
}
