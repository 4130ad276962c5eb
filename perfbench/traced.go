package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"

	"topkmon/internal/serve"
	"topkmon/internal/wal"
	"topkmon/topk"
)

// spans is one request's timings, in ns, kept in memory until the run
// ends. Three replicas take every request of the recorded trace in turn.
//
// B and C run it through serve.Server.ServeHTTP: B is an in-process
// server whose tenants' monitors run on the timing decorators, C a plain
// one. B's request body stamps when the handler first reads it and B's
// response writer when the handler starts its response, so B's handler
// time splits into http.self (start to first body read, plus response
// start to return) and the work in between.
//
// The twin, a tenant with decorated monitors, runs the sequence
// CommitBatch documents, each call timed on its own:
//
//	decode (serve.DecodeBatch)
//	commit
//	├ validate (topk.Monitor.ValidateBatch)
//	├ walAppend, walFsync (wal.Log.Append, wal.Log.Sync)
//	└ facade (topk.Monitor.UpdateBatch)
//	  ├ proto (protocol Start/HandleStep, engine calls inside subtracted)
//	  └ eng[class] (every cluster.Engine call, by class)
//
// A read has read (TopK, or Cost+Check+Health+Epochs) instead. The
// layers take http.self from B and the rest from the twin; their sum is
// checked against B's handler time, which is measured on its own.
type spans struct {
	kind uint8
	// Served replay: B's handler wall time, B's process CPU time over it,
	// B's http.self, C's process CPU time.
	handler, cpu, httpSelf, plain int64
	// Composed replay.
	decode, commit, validate, walAppend int64
	walFsync, facade, protoSelf, read   int64
	walBytes                            int64
	eng                                 [numEngClasses]int64
}

// recorder is a minimal reusable http.ResponseWriter. With stamp set it
// records when the handler starts its response.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
	stamp  bool
	wrote  int64
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(s int)   { r.mark(); r.status = s }
func (r *recorder) Write(b []byte) (int, error) {
	r.mark()
	return r.body.Write(b)
}
func (r *recorder) mark() {
	if r.stamp && r.wrote == 0 {
		r.wrote = monoNow()
	}
}
func (r *recorder) reset() {
	clear(r.h)
	r.status = http.StatusOK
	r.body.Reset()
	r.wrote = 0
}

// timedBody is a request body that stamps when it is first read.
type timedBody struct {
	r     bytes.Reader
	first int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	if b.first == 0 {
		b.first = monoNow()
	}
	return b.r.Read(p)
}

func (b *timedBody) Close() error { return nil }

// cpuFloor is the CPU time an empty interval reads when timed the way
// the served replay times a request: the clocks' own cost, subtracted
// from every request.
func cpuFloor() int64 {
	xs := make([]float64, 1001)
	for i := range xs {
		c0 := cpuNow()
		t0 := monoNow()
		_ = monoNow() - t0
		xs[i] = float64(cpuNow() - c0)
	}
	return int64(median(xs))
}

// inproc is one in-process replica: a serve.Server (optionally on a data
// directory) with the workload's tenants created through its handler.
type inproc struct {
	srv *serve.Server
	dir string
	rec recorder
}

func newInproc(w Workload, dir string) (*inproc, error) {
	opts := serve.Options{}
	if dir != "" {
		opts.Durability = serve.Durability{Dir: dir, Fsync: "always"}
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	p := &inproc{srv: srv, dir: dir, rec: recorder{h: http.Header{}}}
	for i := 0; i < w.Tenants; i++ {
		body := fmt.Sprintf(`{"nodes":%d,"k":%d,"eps":%q,"monitor":%q,"seed":%d}`,
			w.Nodes, w.K, w.Eps, w.Monitor, tenantSeed(i))
		if _, err := p.do(http.MethodPut, "/v1/"+tenantName(i), []byte(body), http.StatusCreated); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return p, nil
}

// decorate replaces every tenant's monitor with one on the timing
// decorators, configured and seeded alike. It runs before any update, so
// the served outputs do not change.
func (p *inproc) decorate(w Workload, st *engineStats) error {
	for i := 0; i < w.Tenants; i++ {
		t, err := p.srv.Pool().Get(tenantName(i))
		if err != nil {
			return err
		}
		m, err := newTracedMonitor(w, i, st)
		if err != nil {
			return err
		}
		t.Mon.Close()
		t.Mon = m
	}
	return nil
}

func (p *inproc) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, "http://topkd"+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	p.rec.reset()
	p.srv.ServeHTTP(&p.rec, req)
	if p.rec.status != want {
		return nil, fmt.Errorf("in-process %s %s: status %d: %s", method, path, p.rec.status, p.rec.body.Bytes())
	}
	return append([]byte(nil), p.rec.body.Bytes()...), nil
}

// httpRequests builds the replay's *http.Request values, and their
// bodies, ahead of timing.
func httpRequests(reqs []request) ([]*http.Request, []*timedBody, error) {
	out := make([]*http.Request, len(reqs))
	bodies := make([]*timedBody, len(reqs))
	for i := range reqs {
		method := http.MethodGet
		if reqs[i].kind == kindWrite {
			method = http.MethodPost
		}
		body := reqs[i].wire[reqs[i].body:]
		bodies[i] = &timedBody{}
		bodies[i].r.Reset(body)
		r, err := http.NewRequest(method, "http://topkd"+reqs[i].path(), bodies[i])
		if err != nil {
			return nil, nil, err
		}
		r.ContentLength = int64(len(body))
		out[i] = r
	}
	return out, bodies, nil
}

// serve runs one request through p's handler. It returns when the
// handler started and returned, and the process CPU time in between less
// floor (see cpuFloor).
func (p *inproc) serve(q *request, hr *http.Request, floor int64) (t0, t1, cpu int64, err error) {
	p.rec.reset()
	c0 := cpuNow()
	t0 = monoNow()
	p.srv.ServeHTTP(&p.rec, hr)
	t1 = monoNow()
	cpu = cpuNow() - c0 - floor
	if p.rec.status != http.StatusOK {
		err = fmt.Errorf("in-process %s: status %d: %s", q.path(), p.rec.status, p.rec.body.Bytes())
	}
	return t0, t1, cpu, err
}

func (p *inproc) get(path string) ([]byte, error) {
	return p.do(http.MethodGet, path, nil, http.StatusOK)
}

// twin runs CommitBatch's documented sequence — ValidateBatch →
// wal.Log.Append (+ Sync) → UpdateBatch — on directly built monitors on
// the timing decorators.
type twin struct {
	mons []*topk.Monitor
	logs []*wal.Log
	st   *engineStats
}

func newTwin(w Workload, walDir string, st *engineStats) (*twin, error) {
	t := &twin{st: st}
	var store *wal.Store
	if walDir != "" {
		var err error
		// SyncNever: the twin calls Sync itself, so append and fsync are
		// timed apart; the bytes reaching the disk are the same.
		if store, err = wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncNever}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.Tenants; i++ {
		m, err := newTracedMonitor(w, i, st)
		if err != nil {
			return nil, err
		}
		t.mons = append(t.mons, m)
		if store != nil {
			l, err := store.Create(tenantName(i))
			if err != nil {
				return nil, err
			}
			cfg := []byte(fmt.Sprintf(`{"tenant":%q}`, tenantName(i)))
			if _, err := l.Append(&wal.Record{Kind: wal.KindConfig, Epoch: 1, Seed: tenantSeed(i), Config: cfg}); err != nil {
				return nil, err
			}
			if err := l.Sync(); err != nil {
				return nil, err
			}
			t.logs = append(t.logs, l)
		}
	}
	return t, nil
}

func (t *twin) close() {
	for _, m := range t.mons {
		m.Close()
	}
	for _, l := range t.logs {
		l.Close()
	}
}

// apply runs one request on the twin, timing each call into s.
func (t *twin) apply(q *request, buf []topk.Update, s *spans) ([]topk.Update, error) {
	m := t.mons[q.tenant]
	t0 := monoNow()
	switch q.kind {
	case kindTopK:
		m.TopK(make([]int, 0, m.K()))
		s.read = monoNow() - t0
		return buf, nil
	case kindCost:
		m.Cost()
		m.Check()
		m.Health()
		m.Epochs()
		s.read = monoNow() - t0
		return buf, nil
	}
	batch, err := serve.DecodeBatch(bytes.NewReader(q.wire[q.body:]), buf[:0], 65536)
	if err != nil {
		return buf, err
	}
	t1 := monoNow()
	s.decode = t1 - t0
	// Each call is timed on its own; what lies between them (building the
	// record, reading the log size and the counters) is commit self time.
	if err := m.ValidateBatch(batch); err != nil {
		return batch, err
	}
	s.validate = monoNow() - t1
	if t.logs != nil {
		l := t.logs[q.tenant]
		before := l.Size()
		rec := wal.Record{Kind: wal.KindBatch, Epoch: 1, Step: uint64(m.Steps()) + 1, Batch: batch}
		ta := monoNow()
		if _, err := l.Append(&rec); err != nil {
			return batch, err
		}
		tb := monoNow()
		if err := l.Sync(); err != nil {
			return batch, err
		}
		tc := monoNow()
		s.walAppend, s.walFsync = tb-ta, tc-tb
		s.walBytes = l.Size() - before
	}
	e0 := *t.st
	tf := monoNow()
	if err := m.UpdateBatch(batch); err != nil {
		return batch, err
	}
	end := monoNow()
	s.facade = end - tf
	s.commit = end - t1
	for c := range s.eng {
		s.eng[c] = t.st.ns[c] - e0.ns[c]
	}
	s.protoSelf = (t.st.protoNs - e0.protoNs) - (t.st.protoEg - e0.protoEg)
	return batch, nil
}

// render gives tenant i's /topk and /cost bodies.
func (t *twin) render(i int) [2][]byte {
	return [2][]byte{renderTopK(t.mons[i]), renderCost(t.mons[i])}
}

// mallocs returns the process's cumulative heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// reconcileTolerance is how far the layer sum may stray from B's handler
// time, as a share of it, before the run notes that the layers do not
// reconcile.
const reconcileTolerance = 0.1

// runTraced replays the recorded fixed-rate trace in-process, layer by
// layer, and reports the per-layer budget.
func runTraced(r *servedRun, fixed []request, servedCPUPerReq float64, served [][2][]byte) error {
	w, rep := r.w, r.rep
	reqs := fixed
	if w.TraceRequests > 0 && len(reqs) > w.TraceRequests {
		reqs = reqs[:w.TraceRequests]
	}
	nreq := float64(len(reqs))
	var writes []int
	var updates int
	for i := range reqs {
		if reqs[i].kind == kindWrite {
			writes = append(writes, i)
			updates += len(reqs[i].batch)
		}
	}
	nw := float64(len(writes))
	sub := func(name string) string {
		if !w.Durable {
			return ""
		}
		return filepath.Join(r.dir, name)
	}

	// Allocations, each counted on a pass of its own: the handler on a
	// plain server, decode alone, UpdateBatch alone on plain monitors.
	a, err := newInproc(w, sub("a"))
	if err != nil {
		return err
	}
	hreqs, _, err := httpRequests(reqs)
	if err != nil {
		return err
	}
	m0 := mallocs()
	for i := range reqs {
		if _, _, _, err = a.serve(&reqs[i], hreqs[i], 0); err != nil {
			break
		}
	}
	httpAllocs := float64(mallocs()-m0) / nreq
	a.srv.Close()
	if err != nil {
		return err
	}
	buf := make([]topk.Update, 0, 256)
	m0 = mallocs()
	for _, i := range writes {
		if buf, err = serve.DecodeBatch(bytes.NewReader(reqs[i].wire[reqs[i].body:]), buf[:0], 65536); err != nil {
			return err
		}
	}
	decodeAllocs := float64(mallocs()-m0) / nw
	var bodyBytes int
	for _, i := range writes {
		bodyBytes += len(reqs[i].wire) - reqs[i].body
	}
	plainMons := make([]*topk.Monitor, w.Tenants)
	for i := range plainMons {
		if plainMons[i], err = newTenantMonitor(w, i); err != nil {
			return err
		}
		defer plainMons[i].Close()
	}
	m0 = mallocs()
	for _, i := range writes {
		if err := plainMons[reqs[i].tenant].UpdateBatch(reqs[i].batch); err != nil {
			return err
		}
	}
	facadeAllocs := float64(mallocs()-m0) / nw

	// The replays run request by request, side by side: C (plain), B
	// (decorated, stamped) and the twin, in an order that rotates, so that
	// none always meets the others' warm caches and all three see the
	// same disk and the same host.
	c, err := newInproc(w, sub("c"))
	if err != nil {
		return err
	}
	defer c.srv.Close()
	b, err := newInproc(w, sub("b"))
	if err != nil {
		return err
	}
	defer b.srv.Close()
	if err := b.decorate(w, &engineStats{}); err != nil {
		return err
	}
	b.rec.stamp = true
	creqs, _, err := httpRequests(reqs)
	if err != nil {
		return err
	}
	breqs, bodies, err := httpRequests(reqs)
	if err != nil {
		return err
	}
	floor := cpuFloor()
	sp := make([]spans, len(reqs))
	serveB := func(i int) error {
		q, s := &reqs[i], &sp[i]
		t0, t1, cpu, err := b.serve(q, breqs[i], floor)
		if err != nil {
			return err
		}
		if b.rec.wrote == 0 || (q.kind == kindWrite && bodies[i].first == 0) {
			return fmt.Errorf("in-process %s: handler left the body unread or the response unwritten", q.path())
		}
		s.handler, s.cpu = t1-t0, cpu
		s.httpSelf = t1 - b.rec.wrote
		if q.kind == kindWrite {
			s.httpSelf += bodies[i].first - t0
		}
		return nil
	}
	serveC := func(i int) (err error) {
		_, _, sp[i].plain, err = c.serve(&reqs[i], creqs[i], floor)
		return err
	}
	st := &engineStats{}
	tw, err := newTwin(w, sub("twin"), st)
	if err != nil {
		return err
	}
	defer tw.close()
	compose := func(i int) (err error) {
		buf, err = tw.apply(&reqs[i], buf, &sp[i])
		return err
	}
	order := []func(int) error{serveC, serveB, compose}
	for i := range reqs {
		sp[i].kind = reqs[i].kind
		for j := range order {
			if err := order[(i+j)%len(order)](i); err != nil {
				return err
			}
		}
	}

	// C, B and the twin must agree byte for byte; with the whole trace
	// replayed, so must topkd.
	bs, err := scrape(w.Tenants, b.get)
	if err != nil {
		return err
	}
	cs, err := scrape(w.Tenants, c.get)
	if err != nil {
		return err
	}
	for i := range bs {
		comp := tw.render(i)
		for _, other := range [][2][]byte{cs[i], comp} {
			if !bytes.Equal(bs[i][0], other[0]) || !bytes.Equal(bs[i][1], other[1]) {
				return fmt.Errorf("%s: in-process replays differ:\n decorated server %s%s other %s%s",
					tenantName(i), bs[i][0], bs[i][1], other[0], other[1])
			}
		}
		if len(reqs) == len(fixed) && (!bytes.Equal(bs[i][0], served[i][0]) || !bytes.Equal(bs[i][1], served[i][1])) {
			return fmt.Errorf("%s: in-process replay differs from topkd", tenantName(i))
		}
	}

	// Replay: boot a server on B's data directory.
	var replayPerStep float64
	if w.Durable {
		b.srv.Close()
		t0 := monoNow()
		again, err := serve.New(serve.Options{Durability: serve.Durability{Dir: b.dir, Fsync: "always"}})
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		replayPerStep = float64(monoNow()-t0) / 1e3 / nw
		again.Close()
	}

	var sum spans
	var fsyncs []float64
	var ntopk, ncost float64
	var topkNs, costNs int64
	for i := range sp {
		s := &sp[i]
		sum.handler += s.handler
		sum.cpu += s.cpu
		sum.httpSelf += s.httpSelf
		sum.plain += s.plain
		switch s.kind {
		case kindTopK:
			ntopk++
			topkNs += s.read
			sum.read += s.read
			continue
		case kindCost:
			ncost++
			costNs += s.read
			sum.read += s.read
			continue
		}
		sum.decode += s.decode
		sum.commit += s.commit
		sum.validate += s.validate
		sum.walAppend += s.walAppend
		sum.walFsync += s.walFsync
		sum.walBytes += s.walBytes
		sum.facade += s.facade
		sum.protoSelf += s.protoSelf
		for c := range s.eng {
			sum.eng[c] += s.eng[c]
		}
		if w.Durable {
			fsyncs = append(fsyncs, float64(s.walFsync)/1e3)
		}
	}
	sort.Float64s(fsyncs)
	var engTotal int64
	for _, ns := range sum.eng {
		engTotal += ns
	}
	perReq := func(ns int64) float64 { return float64(ns) / 1e3 / nreq }
	perStep := func(ns int64) float64 { return float64(ns) / 1e3 / nw }
	perN := func(ns int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / 1e3 / n
	}
	facadeSelf := sum.facade - sum.protoSelf - engTotal
	commitSelf := sum.commit - sum.validate - sum.walAppend - sum.walFsync - sum.facade
	layerSum := sum.httpSelf + sum.decode + sum.commit + sum.read
	unexplained := float64(sum.handler-layerSum) / float64(sum.handler)

	// Epochs, messages and rounds come from the twin's counters.
	var epochs, msgs, rounds int64
	for _, m := range tw.mons {
		epochs += m.Epochs()
		c := m.Cost()
		msgs += c.Messages
		rounds = max(rounds, c.MaxRoundsPerStep)
	}
	var calls int64
	for _, n := range st.calls {
		calls += n
	}

	rep.layer("transport.us_per_req", servedCPUPerReq-perReq(sum.cpu), "us")
	rep.layer("http.handler_us_per_req", perReq(sum.handler), "us")
	rep.layer("http.self_us_per_req", perReq(sum.httpSelf), "us")
	rep.layer("http.allocs_per_req", httpAllocs, "allocs")
	rep.layer("decode.us_per_req", perStep(sum.decode), "us")
	rep.layer("decode.ns_per_update", float64(sum.decode)/float64(updates), "ns")
	rep.layer("decode.allocs_per_req", decodeAllocs, "allocs")
	rep.layer("decode.bytes_per_req", float64(bodyBytes)/nw, "bytes")
	rep.layer("commit.us_per_req", perStep(sum.commit), "us")
	rep.layer("commit.self_us_per_req", perStep(commitSelf), "us")
	rep.layer("validate.us_per_req", perStep(sum.validate), "us")
	rep.layer("wal.append_us_per_req", perStep(sum.walAppend), "us")
	rep.layer("wal.fsync_us_p50", quantile(fsyncs, 0.5), "us")
	rep.layer("wal.fsync_us_p99", quantile(fsyncs, 0.99), "us")
	rep.layer("wal.bytes_per_req", float64(sum.walBytes)/nw, "bytes")
	rep.layer("wal.replay_us_per_step", replayPerStep, "us")
	rep.layer("facade.us_per_step", perStep(sum.facade), "us")
	rep.layer("facade.self_us_per_step", perStep(facadeSelf), "us")
	rep.layer("facade.allocs_per_step", facadeAllocs, "allocs")
	rep.layer("read.topk_us", perN(topkNs, ntopk), "us")
	rep.layer("read.cost_us", perN(costNs, ncost), "us")
	reportEngine(rep, st, sum.protoSelf, epochs, msgs, rounds, calls, st.reports, nw)
	rep.layer("trace.inprocess_us_per_req", perReq(sum.cpu), "us")
	rep.layer("trace.overhead_frac", float64(sum.cpu-sum.plain)/float64(sum.plain), "ratio")
	rep.layer("trace.unexplained_frac", math.Abs(unexplained), "ratio")
	verdict := "within"
	if math.Abs(unexplained) > reconcileTolerance {
		verdict = "OUTSIDE"
	}
	rep.note("traced %d requests (%d writes, %.0f reads); layer sum http.self %.2f + decode %.2f + commit.self %.2f + validate %.2f + wal %.2f + facade.self %.2f + protocol %.2f + engine %.2f + read %.2f = %.2f us/req against the decorated handler's %.2f us/req: %+.3f unexplained, %s the %.2f tolerance",
		len(reqs), len(writes), ntopk+ncost, perReq(sum.httpSelf), perReq(sum.decode), perReq(commitSelf), perReq(sum.validate),
		perReq(sum.walAppend+sum.walFsync), perReq(facadeSelf), perReq(sum.protoSelf), perReq(engTotal), perReq(sum.read),
		perReq(layerSum), perReq(sum.handler), unexplained, verdict, reconcileTolerance)
	rep.note("served CPU %.2f us/req = transport %.2f + in-process CPU %.2f (decorated handler; the plain one's CPU is %.2f)",
		servedCPUPerReq, servedCPUPerReq-perReq(sum.cpu), perReq(sum.cpu), perReq(sum.plain))
	largest(rep, map[string]int64{
		"http.self": sum.httpSelf, "decode": sum.decode, "commit.self": commitSelf, "validate": sum.validate,
		"wal.append": sum.walAppend, "wal.fsync": sum.walFsync, "facade.self": facadeSelf,
		"protocol.self": sum.protoSelf, "engine": engTotal,
	})
	rep.note("protocol+engine %.2f us/step vs decode %.2f us/step", perStep(sum.protoSelf+engTotal), perStep(sum.decode))
	return writeSpans(filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("spans-%s-seed%d.csv", w.Name, r.seed)), sp)
}

// reportEngine emits the protocol and engine rows from the decorators.
func reportEngine(rep *report, st *engineStats, protoSelf, epochs, msgs, rounds, calls, reports int64, steps float64) {
	per := func(x int64) float64 {
		if steps == 0 {
			return 0
		}
		return float64(x) / steps
	}
	rep.layer("protocol.self_us_per_step", per(protoSelf)/1e3, "us")
	rep.layer("protocol.epochs_per_kstep", per(epochs)*1000, "epochs")
	rep.layer("protocol.msgs_per_step", per(msgs), "msgs")
	rep.layer("protocol.max_rounds_per_step", float64(rounds), "rounds")
	for c, name := range engClassNames {
		rep.layer("engine."+name+"_us_per_step", per(st.ns[c])/1e3, "us")
	}
	rep.layer("engine.calls_per_step", per(calls), "calls")
	rep.layer("engine.reports_per_step", per(reports), "reports")
}

// largest notes the write path's largest self-time span.
func largest(rep *report, spans map[string]int64) {
	best := ""
	for _, k := range sortedKeys(spans) {
		if best == "" || spans[k] > spans[best] {
			best = k
		}
	}
	rep.note("largest write-path span: %s", best)
}

// writeSpans writes the per-request spans out as CSV, in ns.
func writeSpans(path string, sp []spans) error {
	var b bytes.Buffer
	b.WriteString("req,kind,handler,cpu,http_self,plain_cpu,decode,commit,validate,wal_append,wal_fsync,facade,protocol_self,read,advance,sweep,collect,maxfind,send\n")
	for i, s := range sp {
		b.WriteString(strconv.Itoa(i))
		for _, v := range []int64{int64(s.kind), s.handler, s.cpu, s.httpSelf, s.plain, s.decode, s.commit, s.validate, s.walAppend, s.walFsync, s.facade, s.protoSelf, s.read,
			s.eng[0], s.eng[1], s.eng[2], s.eng[3], s.eng[4]} {
			b.WriteByte(',')
			b.WriteString(strconv.FormatInt(v, 10))
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
