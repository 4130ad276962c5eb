// Loadbalancer: the paper's motivating scenario on the public topk API — a
// balancer in front of a web-server cluster continuously tracking the k
// most loaded servers. The monitor hosts the servers' node state, and the
// balancer only learns what the filter protocol tells it.
//
// The balancer reacts through Monitor.Subscribe: every committed tick that
// changes the hot set delivers one event. The demo compares the
// Theorem 5.8 controller against the naive report-every-change design on an
// identical bursty load trace.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"topkmon/topk"
)

const (
	servers = 48
	k       = 5
	steps   = 1500
)

// loadTrace pre-generates the bursty load matrix once so both monitors see
// identical data: per-server baseline noise plus sudden hotspots that decay
// geometrically.
func loadTrace() [][]int64 {
	rng := rand.New(rand.NewSource(99))
	base := make([]int64, servers)
	burst := make([]int64, servers)
	for i := range base {
		base[i] = 1000 + rng.Int63n(2001)
	}
	trace := make([][]int64, steps)
	for t := range trace {
		row := make([]int64, servers)
		for i := range row {
			if rng.Float64() < 0.004 {
				burst[i] += 4000 + rng.Int63n(8001)
			}
			burst[i] -= burst[i] / 4
			row[i] = base[i] + burst[i] + rng.Int63n(121) - 60
			if row[i] < 0 {
				row[i] = 0
			}
		}
		trace[t] = row
	}
	return trace
}

func run(trace [][]int64, algo topk.Algorithm, e topk.Epsilon, label string) int64 {
	m, err := topk.New(k, e,
		topk.WithNodes(servers), topk.WithSeed(11),
		topk.WithMonitor(algo))
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	events := m.Subscribe()

	hotSwaps := 0
	batch := make([]topk.Update, servers)
	for t, row := range trace {
		for i, v := range row {
			batch[i] = topk.Update{Node: i, Value: v}
		}
		if err := m.UpdateBatch(batch); err != nil {
			log.Fatal(err)
		}
		if err := m.Check(); err != nil {
			log.Fatalf("%s step %d: %v", label, t, err)
		}
		// React to hot-set changes; the balancer would re-route here.
		for len(events) > 0 {
			<-events
			hotSwaps++
		}
	}
	c := m.Cost()
	fmt.Printf("%-22s messages=%7d (%.3f/step)  hot-set changes=%d\n",
		label, c.Messages, float64(c.Messages)/steps, hotSwaps)
	return c.Messages
}

func main() {
	fmt.Printf("balancer tracking top-%d of %d servers over %d ticks\n\n", k, servers, steps)
	trace := loadTrace()
	e := topk.MustEpsilon(1, 10)
	filtered := run(trace, topk.Approx, e, "approx (ε=1/10)")
	naive := run(trace, topk.Naive, e, "naive report-all")
	fmt.Printf("\nfilter-based monitoring sent %.1fx fewer messages\n",
		float64(naive)/float64(filtered))
}
