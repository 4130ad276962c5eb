package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Settings every served workload shares.
const (
	// connections is the generator's keep-alive connection count, one per
	// CPU of the 2-vCPU machine the rates were sized on; tenant i always
	// uses connection i mod connections.
	connections = 2
	// A run boots topkd in two rounds, one before the fixed-rate phase
	// (its last boot serves the run) and one at the end, so setup_s, the
	// median of all timed boots, samples the shared host at two times. A
	// round boots setupWarmups times untimed, then setupRepeats times
	// timed: the first few boots of a round are slower (8-12 ms against
	// 4-6 ms on the 2-vCPU VM), whatever came before.
	setupWarmups = 5
	setupRepeats = 16
	warmupS      = 1.0  // fixed-rate warm-up before the timed window, s
	ladderRatio  = 1.05 // adjacent sustained_ups ladder steps
	probeS       = 1.0  // length of one ladder probe, s
)

// servedRun drives one served workload against freshly booted topkd
// processes.
type servedRun struct {
	st      *Settings
	w       Workload
	seed    uint64
	seconds float64
	bin     string // topkd binary
	dir     string // this run's directory (data directories live here)
	rep     *report
}

// phaseStats summarises one open-loop phase over its timed window.
type phaseStats struct {
	writeP50, readP50 float64
	writeTail         tailStat
	readTail          tailStat
	lagP50, lagP99    float64
	backlogMax        int
	backlogWin        float64 // median over tail windows of each window's largest backlog
	attempted, failed int     // requests in the window; transport errors or non-2xx
	missed            int     // window requests over the latency limit
	writes, updates   int     // window writes and their updates
}

func (r *servedRun) summarise(reqs []request, res *genResult, from int64) phaseStats {
	var ps phaseStats
	var writes, reads []sample
	var lags []float64
	winBacklog := map[int64]int{}
	win := int64(r.w.TailWindowS * 1e9)
	limit := r.w.LimitMs
	for i := range reqs {
		q, o := &reqs[i], &res.out[i]
		if q.due < from {
			continue
		}
		if o.status < 0 {
			continue // not sent: the phase was aborted
		}
		ps.attempted++
		if o.status < 200 || o.status > 299 {
			ps.failed++
			ps.missed++
			continue
		}
		ms := float64(o.done-q.due) / 1e6
		if ms > limit {
			ps.missed++
		}
		lags = append(lags, float64(o.lag)/1e6)
		wi := (q.due - from) / win
		winBacklog[wi] = max(winBacklog[wi], o.backlog)
		if q.kind == kindWrite {
			ps.updates += len(q.batch)
			writes = append(writes, sample{q.due, ms})
		} else {
			reads = append(reads, sample{q.due, ms})
		}
	}
	sort.Float64s(lags)
	ps.lagP50, ps.lagP99 = quantile(lags, 0.5), quantile(lags, 0.99)
	ps.backlogMax = res.backlogMax
	var bl []float64
	for _, b := range winBacklog {
		bl = append(bl, float64(b))
	}
	ps.backlogWin = median(bl)
	ps.writeP50 = medianOf(writes)
	ps.writeTail = computeTail(writes, from, win)
	if r.w.ReadRate > 0 {
		// Read windows hold as many samples as write windows.
		rwin := int64(float64(win) * r.w.Rate / r.w.ReadRate)
		ps.readP50 = medianOf(reads)
		ps.readTail = computeTail(reads, from, rwin)
	}
	return ps
}

func medianOf(s []sample) float64 {
	xs := make([]float64, len(s))
	for i, x := range s {
		xs[i] = x.ms
	}
	return median(xs)
}

// boot starts topkd and creates the tenants, returning the set-up time.
func (r *servedRun) boot(dataDir string) (*server, float64, error) {
	s, ready, err := startServer(r.bin, dataDir)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := s.createTenants(r.w); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, (ready + time.Since(t0)).Seconds(), nil
}

func (r *servedRun) dataDir(i int) string {
	if !r.w.Durable {
		return ""
	}
	return filepath.Join(r.dir, "data"+strconv.Itoa(i))
}

// boots runs one round of set-up (see setupRepeats), numbering data
// directories from first, and returns the timed set-up times. With keep
// set, the last boot stays up and is returned.
func (r *servedRun) boots(first int, keep bool) ([]float64, *server, error) {
	var setups []float64
	last := first + setupWarmups + setupRepeats - 1
	for i := first; i <= last; i++ {
		// The benchmark's side of a boot (polling, creating tenants) is
		// timed too, so no collection of the freshly generated trace may
		// run during it.
		runtime.GC()
		s, d, err := r.boot(r.dataDir(i))
		if err != nil {
			return nil, nil, err
		}
		if i >= first+setupWarmups {
			setups = append(setups, d)
		}
		if keep && i == last {
			return setups, s, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
		if dd := r.dataDir(i); dd != "" {
			os.RemoveAll(dd)
		}
	}
	return setups, nil, nil
}

// run executes the workload. With traced set it replaces the ladder by
// the in-process traced replay and reports per-layer metrics.
func (r *servedRun) run(traced bool) error {
	w := r.w
	rep := r.rep
	tr := newTrace(w, r.seed)
	fixed := tr.phase(warmupS+r.seconds, w.Rate)

	setups, main, err := r.boots(0, true)
	defer func() { main.stop() }()
	if err != nil {
		return err
	}
	dataDir := r.dataDir(setupWarmups + setupRepeats - 1)

	conns, err := r.dial(main)
	if err != nil {
		return err
	}
	defer func() { closeConns(conns) }()

	// The timed window starts after the warm-up; topkd's CPU time is
	// read at its start and after the last response.
	from := int64(warmupS * 1e9)
	var cpu0 time.Duration
	var cpuErr error
	mark := func() { cpu0, cpuErr = main.cpu() }
	res, err := runOpenLoop(conns, fixed, from, mark, 10*time.Second, 0)
	if err != nil {
		return err
	}
	cpu1, err := main.cpu()
	if err != nil || cpuErr != nil {
		return fmt.Errorf("read topkd cpu: %v %v", err, cpuErr)
	}
	ps := r.summarise(fixed, res, from)
	rep.attempted += ps.attempted
	rep.failed += ps.failed
	if ps.failed > 0 {
		return fmt.Errorf("%d of %d requests failed at the fixed rate", ps.failed, ps.attempted)
	}
	rep.layer("gen.lag_p50_ms", ps.lagP50, "ms")
	rep.layer("gen.lag_p99_ms", ps.lagP99, "ms")
	rep.layer("gen.backlog_max", float64(ps.backlogMax), "count")
	if ps.lagP50 > r.st.LagBoundMs {
		return fmt.Errorf("generator ran late: median lag %.4f ms exceeds the %.3f ms bound; latency not reported", ps.lagP50, r.st.LagBoundMs)
	}
	rep.extra("write_p50_ms", ps.writeP50, "ms")
	rep.extra("write_tail_ms", ps.writeTail.value, "ms")
	rep.note("write_tail_ms is p%g, %d windows of >= %d samples", ps.writeTail.percentile, ps.writeTail.windows, ps.writeTail.perWindow)
	cpuPerUpdate := float64((cpu1 - cpu0).Microseconds()) / float64(ps.updates)
	rep.e2e("server_cpu_us_per_update", cpuPerUpdate, "us")
	rep.extra("fail_frac", float64(ps.missed)/float64(ps.attempted), "ratio")
	if w.ReadRate > 0 {
		rep.extra("read_p50_ms", ps.readP50, "ms")
		rep.extra("read_tail_ms", ps.readTail.value, "ms")
		rep.note("read_tail_ms is p%g, %d windows of >= %d samples", ps.readTail.percentile, ps.readTail.windows, ps.readTail.perWindow)
	}

	// Output checks: every tenant's bodies equal a direct replay of the
	// batches it acknowledged.
	acked := tenantBatches(fixed, w.Tenants)
	served, err := scrape(w.Tenants, main.get)
	if err != nil {
		return err
	}
	var msgs int64
	var updates int
	for i := range served {
		if err := checkScrape(w, i, acked[i], served[i]); err != nil {
			return err
		}
		m, err := costMessages(served[i][1])
		if err != nil {
			return err
		}
		msgs += m
		for _, b := range acked[i] {
			updates += len(b)
		}
	}
	rep.e2e("msgs_per_update", float64(msgs)/float64(updates), "msgs")
	rss, err := peakRSS(main.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rep.e2e("rss_mb", rss, "MiB")
	servedCPUPerReq := float64((cpu1 - cpu0).Microseconds()) / float64(ps.attempted)

	if w.Durable {
		// Restart on the same data directory: recovery must serve the
		// scrape taken before the restart, byte for byte.
		closeConns(conns)
		conns = nil
		if err := main.stop(); err != nil {
			return fmt.Errorf("stop topkd: %w", err)
		}
		main = nil
		s, d, err := startServer(r.bin, dataDir)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		main = s
		rep.extra("recovery_s", d.Seconds(), "s")
		again, err := scrape(w.Tenants, main.get)
		if err != nil {
			return err
		}
		for i := range again {
			if !bytes.Equal(again[i][0], served[i][0]) || !bytes.Equal(again[i][1], served[i][1]) {
				return fmt.Errorf("%s: scrape after restart differs:\n before %s%s after %s%s",
					tenantName(i), served[i][0], served[i][1], again[i][0], again[i][1])
			}
		}
		if conns, err = r.dial(main); err != nil {
			return err
		}
	}

	if traced {
		return runTraced(r, fixed, servedCPUPerReq, served)
	}
	if err := r.ladder(tr, conns, ps); err != nil {
		return err
	}

	// The second set-up round, with nothing else running.
	closeConns(conns)
	conns = nil
	if err := main.stop(); err != nil {
		return fmt.Errorf("stop topkd: %w", err)
	}
	main = nil
	more, _, err := r.boots(setupWarmups+setupRepeats, false)
	if err != nil {
		return err
	}
	setups = append(setups, more...)
	rep.e2e("setup_s", median(setups), "s")
	sort.Float64s(setups)
	rep.note("setup_s: median of %d boots in two rounds; fastest %.4f s, slowest %.4f s", len(setups), setups[0], setups[len(setups)-1])
	return nil
}

func (r *servedRun) dial(s *server) ([]*clientConn, error) {
	var conns []*clientConn
	for i := 0; i < connections; i++ {
		c, err := dialConn(s.addr)
		if err != nil {
			closeConns(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeConns(cs []*clientConn) {
	for _, c := range cs {
		c.nc.Close()
	}
}

// ladder finds sustained_ups: the highest rate on a geometric ladder
// (adjacent steps ladderRatio apart) at which the write tail meets the
// latency limit, nothing fails and the backlog stays bounded (both judged
// per tail window, median over windows). The fixed-rate phase is step 0;
// the scan starts at LadderStart, climbs one step per probe and stops
// after two failed steps in a row, so neither one stall of the host nor
// one lucky probe past the knee decides the result. If the start itself
// fails, a binary search finds the knee below it, under the fixed rate if
// it must.
func (r *servedRun) ladder(tr *Trace, conns []*clientConn, fixed phaseStats) error {
	w := r.w
	rate := func(i int) float64 { return w.Rate * math.Pow(ladderRatio, float64(i)) }
	// Bounded backlog: at most one latency limit's worth of requests at
	// the step's rate.
	pass := func(ps phaseStats, i int) bool {
		return ps.failed == 0 && ps.writeTail.value <= w.LimitMs && ps.backlogWin <= rate(i)*w.LimitMs/1000
	}
	probe := func(i int) (bool, error) {
		reqs := tr.phase(probeS, rate(i))
		// Abort a probe once the backlog holds ten latency limits' worth
		// of requests: the rate is past saturation.
		abort := int(rate(i) * w.LimitMs / 100)
		res, err := runOpenLoop(conns, reqs, 0, nil, 10*time.Second, abort)
		if err != nil {
			return false, err
		}
		ps := r.summarise(reqs, res, 0)
		r.rep.attempted += ps.attempted
		r.rep.failed += ps.failed
		if ps.failed > 0 {
			return false, fmt.Errorf("ladder probe at %.0f req/s: %d requests failed", rate(i), ps.failed)
		}
		r.rep.note("ladder step %d: %.0f req/s, tail %.3f ms, p50 %.3f ms, backlog %.0f, pass %v",
			i, rate(i), ps.writeTail.value, ps.writeP50, ps.backlogWin, pass(ps, i))
		return pass(ps, i), nil
	}
	best, found, misses := 0, false, 0
	for i := w.LadderStart; i <= w.LadderSteps && misses < 2; i++ {
		ok, err := probe(i)
		if err != nil {
			return err
		}
		if ok {
			best, found, misses = i, true, 0
		} else {
			misses++
		}
	}
	if !found {
		// The knee lies below the start: binary-search the steps below it,
		// taking the fixed-rate phase as step 0 and continuing under the
		// fixed rate if it must.
		lo, hi := -w.LadderSteps-1, w.LadderStart // lo: sentinel below the ladder
		if pass(fixed, 0) {
			lo = 0
		} else {
			hi = 0
		}
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			ok, err := probe(mid)
			if err != nil {
				return err
			}
			if ok {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo < -w.LadderSteps {
			return fmt.Errorf("no ladder step down to %.0f req/s meets the %g ms limit", rate(-w.LadderSteps), w.LimitMs)
		}
		best = lo
	}
	r.rep.extra("sustained_ups", rate(best)*float64(w.Batch), "updates/s")
	r.rep.note("sustained_ups: ladder step %d of %d (%.0f req/s)", best, w.LadderSteps, rate(best))
	return nil
}
