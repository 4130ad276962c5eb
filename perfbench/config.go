package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"topkmon/topk"
)

// workloadsJSON is the benchmark's record of what each run measures:
// every workload's shape, offered rate, latency limit and ladder start,
// the generator's validity bound and the CPU pinning. Settings that no
// workload varies are constants next to their use.
//
//go:embed workloads.json
var workloadsJSON []byte

// Settings is the parsed workloads.json.
type Settings struct {
	Pinning    string     `json:"pinning"` // how run.sh and startServer pin the processes
	LagBoundMs float64    `json:"lag_bound_ms"`
	Workloads  []Workload `json:"workloads"`
}

// Workload is one traffic mix. Served workloads drive topkd over
// loopback; the items workload drives topk/items in-process.
type Workload struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // "served" | "items"
	Stresses string `json:"stresses"`
	Bypasses string `json:"bypasses"`

	// Served shape.
	Tenants  int     `json:"tenants"`
	Nodes    int     `json:"nodes"`
	K        int     `json:"k"`
	Eps      string  `json:"eps"`
	Monitor  string  `json:"monitor"`
	Batch    int     `json:"batch"`
	Walks    int     `json:"walks"` // >0: interleaved random walks; 0: jitter inside filters
	Durable  bool    `json:"durable"`
	Rate     float64 `json:"rate"`      // offered update requests per second
	ReadRate float64 `json:"read_rate"` // offered read requests per second

	// TailWindowS is the window the tail statistic is taken in (see
	// tailStat): sized so each window holds a few hundred samples.
	TailWindowS float64 `json:"tail_window_s"`
	LimitMs     float64 `json:"limit_ms"`
	LadderStart int     `json:"ladder_start"`
	LadderSteps int     `json:"ladder_steps"`

	// TraceRequests caps the requests (items: steps) the traced run
	// replays in-process.
	TraceRequests int `json:"trace_requests"`

	// Items shape.
	Items         int     `json:"items"`
	Capacity      int     `json:"capacity"`
	EventsPerStep int     `json:"events_per_step"`
	ZipfS         float64 `json:"zipf_s"`
	FixedSteps    int     `json:"fixed_steps"`
}

func loadSettings() (*Settings, error) {
	var s Settings
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &s, nil
}

// workload returns the named workload.
func (s *Settings) workload(name string) (Workload, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// epsilon parses the workload's "p/q" error.
func (w Workload) epsilon() (topk.Epsilon, error) {
	return topk.ParseEpsilon(w.Eps)
}

// epsParts splits "p/q" for the internal eps constructor.
func (w Workload) epsParts() (int64, int64, error) {
	p, q, ok := strings.Cut(w.Eps, "/")
	if !ok {
		return 0, 0, fmt.Errorf("eps %q: want p/q", w.Eps)
	}
	num, err := strconv.ParseInt(p, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	den, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return num, den, nil
}

// tenantSeed is the monitor seed of tenant i: distinct per tenant and
// fixed, so a tenant's outputs depend only on its trace.
func tenantSeed(i int) uint64 { return uint64(1000 + i) }

func tenantName(i int) string { return "t" + strconv.Itoa(i) }
