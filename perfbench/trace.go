package main

import (
	"math/rand/v2"
	"sort"
	"strconv"

	"topkmon/topk"
)

// Request kinds.
const (
	kindWrite uint8 = iota
	kindTopK
	kindCost
)

// request is one generated HTTP request: when it is due (ns from the
// phase start), which tenant it belongs to, and its exact wire bytes.
type request struct {
	due    int64
	tenant int
	kind   uint8
	wire   []byte        // the full HTTP/1.1 request
	body   int           // offset of the body inside wire
	batch  []topk.Update // writes only: the updates the body encodes
}

func (r *request) path() string {
	name := tenantName(r.tenant)
	switch r.kind {
	case kindTopK:
		return "/v1/" + name + "/topk"
	case kindCost:
		return "/v1/" + name + "/cost"
	}
	return "/v1/" + name + "/update"
}

// tenantGen is one tenant's value source. Its state persists across
// phases, so the ladder continues the walks the timed phase left.
type tenantGen struct {
	w      Workload
	arrive *rand.Rand // write arrivals
	values *rand.Rand // update values
	reads  *rand.Rand // read arrivals
	walks  [][]int64  // churn: one value vector per interleaved walk
	base   []int64    // bulk: each node's level
	writes int        // writes generated so far
	nreads int        // reads generated so far
}

// Trace generates a workload's requests from a seed. Equal seeds give
// byte-identical requests in the same per-tenant order.
type Trace struct {
	w       Workload
	tenants []*tenantGen
}

// newTrace seeds every tenant's generator.
func newTrace(w Workload, seed uint64) *Trace {
	t := &Trace{w: w}
	for i := 0; i < w.Tenants; i++ {
		s := uint64(i) << 8
		g := &tenantGen{
			w:      w,
			arrive: rand.New(rand.NewPCG(seed, s|1)),
			values: rand.New(rand.NewPCG(seed, s|2)),
			reads:  rand.New(rand.NewPCG(seed, s|3)),
		}
		if w.Walks > 0 {
			g.walks = make([][]int64, w.Walks)
			for j := range g.walks {
				g.walks[j] = make([]int64, w.Nodes)
				for n := range g.walks[j] {
					g.walks[j][n] = 5000 + g.values.Int64N(10001)
				}
			}
		} else {
			// Well-separated levels: k nodes high, the rest far below. A
			// jitter of ±1000 never crosses between the two bands, so the
			// monitor's filters hold and the protocol stays idle.
			g.base = make([]int64, w.Nodes)
			top := g.values.Perm(w.Nodes)[:w.K]
			for n := range g.base {
				g.base[n] = 10000 + g.values.Int64N(390001)
			}
			for _, n := range top {
				g.base[n] = 1000000 + g.values.Int64N(200001)
			}
		}
		t.tenants = append(t.tenants, g)
	}
	return t
}

// nextBatch generates the tenant's next update batch.
func (g *tenantGen) nextBatch() []topk.Update {
	w := g.w
	b := make([]topk.Update, 0, w.Batch)
	if w.Walks > 0 {
		walk := g.walks[g.writes%w.Walks]
		for i := 0; i < w.Batch; i++ {
			node := g.values.IntN(w.Nodes)
			v := walk[node] + g.values.Int64N(401) - 200
			if v < 0 {
				v = 0
			}
			walk[node] = v
			b = append(b, topk.Update{Node: node, Value: v})
		}
	} else {
		// The first batch sets every node, so the first epoch starts
		// from the final band structure.
		nodes := w.Batch
		if g.writes == 0 {
			nodes = w.Nodes
		}
		for i := 0; i < nodes; i++ {
			node := i
			if g.writes > 0 {
				node = g.values.IntN(w.Nodes)
			}
			b = append(b, topk.Update{Node: node, Value: g.base[node] + g.values.Int64N(2001) - 1000})
		}
	}
	g.writes++
	return b
}

// phase generates the requests due in [0, dur) at the given write rate
// (the read rate scales with it), merged in due order. Each tenant is an
// independent Poisson pusher.
func (t *Trace) phase(dur, rate float64) []request {
	w := t.w
	var out []request
	end := int64(dur * 1e9)
	readRate := w.ReadRate * rate / w.Rate
	for i, g := range t.tenants {
		mean := 1e9 * float64(w.Tenants) / rate
		for at := int64(g.arrive.ExpFloat64() * mean); at < end; at += int64(g.arrive.ExpFloat64() * mean) {
			b := g.nextBatch()
			out = append(out, writeRequest(at, i, b))
		}
		if readRate > 0 {
			mean := 1e9 * float64(w.Tenants) / readRate
			for at := int64(g.reads.ExpFloat64() * mean); at < end; at += int64(g.reads.ExpFloat64() * mean) {
				kind := kindTopK
				if g.nreads%10 == 9 {
					kind = kindCost
				}
				g.nreads++
				out = append(out, readRequest(at, i, kind))
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].due != out[b].due {
			return out[a].due < out[b].due
		}
		return out[a].tenant < out[b].tenant
	})
	return out
}

// encodeBatch renders the batch as the JSON array topkd decodes.
func encodeBatch(dst []byte, b []topk.Update) []byte {
	dst = append(dst, '[')
	for i, u := range b {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = strconv.AppendInt(dst, int64(u.Node), 10)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendInt(dst, u.Value, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func writeRequest(due int64, tenant int, b []topk.Update) request {
	r := request{due: due, tenant: tenant, kind: kindWrite, batch: b}
	body := encodeBatch(nil, b)
	wire := make([]byte, 0, len(body)+128)
	wire = append(wire, "POST "...)
	wire = append(wire, r.path()...)
	wire = append(wire, " HTTP/1.1\r\nHost: topkd\r\nContent-Type: application/json\r\nContent-Length: "...)
	wire = strconv.AppendInt(wire, int64(len(body)), 10)
	wire = append(wire, "\r\n\r\n"...)
	r.body = len(wire)
	r.wire = append(wire, body...)
	return r
}

func readRequest(due int64, tenant int, kind uint8) request {
	r := request{due: due, tenant: tenant, kind: kind}
	wire := append([]byte("GET "), r.path()...)
	wire = append(wire, " HTTP/1.1\r\nHost: topkd\r\n\r\n"...)
	r.body = len(wire)
	r.wire = wire
	return r
}

// tenantBatches returns each tenant's write batches in trace order.
func tenantBatches(reqs []request, tenants int) [][][]topk.Update {
	out := make([][][]topk.Update, tenants)
	for i := range reqs {
		if reqs[i].kind == kindWrite {
			out[reqs[i].tenant] = append(out[reqs[i].tenant], reqs[i].batch)
		}
	}
	return out
}
