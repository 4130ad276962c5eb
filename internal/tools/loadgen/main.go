// Command loadgen drives a running topkd with many concurrent simulated
// clients and reports sustained throughput and latency percentiles. It is
// the measurement half of `make bench-serve` (snapshot: BENCH_PR8.json)
// and the CI serve-smoke job's traffic source.
//
// Each client owns a seeded random-walk workload over one tenant's nodes
// and POSTs batches to /v1/{tenant}/update in a closed loop; tenants are
// pre-created (PUT, 409-tolerant) from the config flags so the run does
// not depend on the server's lazy defaults. After the drive, every
// tenant's /v1/{tenant}/cost snapshot is scraped and the run FAILS (exit
// 1) on any transport error or any silent-invalid answer — a tenant whose
// referee Check fails while Health still claims fresh — making the
// no-silent-wrong-answers guarantee an operational assertion, not just a
// test one.
//
// Exactly-once accounting (-seq, on by default): every POST carries
// ?client=&seq= idempotency parameters, so a durable topkd (-data-dir)
// commits each batch exactly once even when loadgen retries it. -retries
// N turns on retry-on-error: a failed request (transport error, 429, or
// 5xx) is resent with the SAME seq after a growing backoff (honoring a
// Retry-After header when the server sends one), which is how kill/restart
// runs are driven without double-counting. After the drive, each tenant's
// step-count delta (versus a pre-drive baseline scrape) is checked against
// the batches this run actually acked: delta < acked means an acked batch
// was LOST, delta > acked + unresolved-errors means a batch DOUBLE
// COMMITTED — both fail the run.
//
// Usage:
//
//	loadgen [-addr http://127.0.0.1:7070] [-tenants 8] [-clients 64]
//	        [-requests 200] [-batch 16] [-nodes 64] [-k 4] [-eps 1/8]
//	        [-monitor approx] [-seed 1] [-faults spec] [-tenant-prefix t]
//	        [-out FILE] [-wait 10s]
//	        [-seq] [-retries 0] [-retry-backoff 100ms] [-workload uniform]
//
// -workload selects how each client spreads its batch across the tenant's
// nodes: "uniform" (the default, every node equally likely) or "zipf:s"
// with s > 1 (e.g. "zipf:1.2") for an item-skewed drive where a few hot
// nodes absorb most updates — the heavy-hitter ingest shape. The pick
// sequence stays a pure function of the client index and -seed, and the
// exactly-once accounting is untouched by the choice.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"topkmon/internal/serve"
	"topkmon/topk"
)

type params struct {
	Addr     string `json:"addr"`
	Prefix   string `json:"tenantPrefix"`
	Tenants  int    `json:"tenants"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requestsPerClient"`
	Batch    int    `json:"updatesPerBatch"`
	Nodes    int    `json:"nodes"`
	K        int    `json:"k"`
	Eps      string `json:"eps"`
	Monitor  string `json:"monitor"`
	Seed     uint64 `json:"seed"`
	Faults   string `json:"faults,omitempty"`
	Seq      bool   `json:"seq"`
	Retries  int    `json:"retries,omitempty"`
	Workload string `json:"workload"`

	backoff time.Duration
	runID   string // per-run client-id nonce, so reruns never collide on watermarks
}

type latencySummary struct {
	P50Ms float64 `json:"p50"`
	P90Ms float64 `json:"p90"`
	P99Ms float64 `json:"p99"`
	MaxMs float64 `json:"max"`
}

type results struct {
	Requests      int            `json:"requests"`
	Errors        int            `json:"errors"`
	Acked         int            `json:"acked"`
	Duplicates    int            `json:"duplicates"`
	Resends       int            `json:"resends"`
	Updates       int64          `json:"updates"`
	WallSeconds   float64        `json:"wallSeconds"`
	ReqPerSec     float64        `json:"reqPerSec"`
	UpdatesPerSec float64        `json:"updatesPerSec"`
	LatencyMs     latencySummary `json:"latencyMs"`
}

type tenantReport struct {
	Name          string `json:"name"`
	Steps         int64  `json:"steps"`
	StepDelta     int64  `json:"stepDelta"`
	Acked         int    `json:"acked"`
	Messages      int64  `json:"messages"`
	Epochs        int64  `json:"epochs"`
	Check         string `json:"check"`
	Health        string `json:"health"`
	SilentInvalid bool   `json:"silentInvalid"`
}

type snapshot struct {
	Kind    string            `json:"kind"`
	When    string            `json:"when"`
	Env     map[string]any    `json:"env"`
	Params  params            `json:"params"`
	Results results           `json:"results"`
	Tenants []tenantReport    `json:"tenants"`
	Notes   map[string]string `json:"notes,omitempty"`
}

// costScrape is the slice of serve's /cost response loadgen consumes.
type costScrape struct {
	Steps         int64  `json:"steps"`
	Epochs        int64  `json:"epochs"`
	Messages      int64  `json:"messages"`
	Check         string `json:"check"`
	SilentInvalid bool   `json:"silentInvalid"`
	Health        struct {
		State string `json:"state"`
	} `json:"health"`
}

type clientStats struct {
	lats    []time.Duration
	errs    int
	reqs    int
	acked   int // batches with a 200 ack (counting a duplicate ack once)
	dups    int // acks that reported duplicate:true (a retry landed twice)
	resends int // retry attempts beyond the first send
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7070", "topkd base URL")
	tenants := flag.Int("tenants", 8, "tenant count")
	prefix := flag.String("tenant-prefix", "t", "tenant name prefix")
	clients := flag.Int("clients", 64, "concurrent client goroutines")
	requests := flag.Int("requests", 200, "requests per client")
	batch := flag.Int("batch", 16, "updates per request")
	nodes := flag.Int("nodes", 64, "nodes per tenant")
	k := flag.Int("k", 4, "top-set size per tenant")
	epsStr := flag.String("eps", "1/8", "tenant ε as p/q")
	monitor := flag.String("monitor", "approx", "tenant algorithm")
	seed := flag.Uint64("seed", 1, "workload + tenant seed")
	faultSpec := flag.String("faults", "", "tenant fault spec (same syntax as topkd -faults)")
	out := flag.String("out", "", "write the JSON snapshot here (default: stdout summary only)")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the server to come up")
	seqMode := flag.Bool("seq", true, "send per-client sequence numbers (exactly-once accounting)")
	retries := flag.Int("retries", 0, "retry a failed request this many times with the same seq (0 = no retries)")
	backoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base backoff between retries (grows linearly)")
	workload := flag.String("workload", "uniform", "node-selection workload: uniform | zipf:s (s > 1)")
	flag.Parse()

	p := params{
		Addr: *addr, Prefix: *prefix, Tenants: *tenants, Clients: *clients, Requests: *requests,
		Batch: *batch, Nodes: *nodes, K: *k, Eps: *epsStr,
		Monitor: *monitor, Seed: *seed, Faults: *faultSpec,
		Seq: *seqMode, Retries: *retries, backoff: *backoff, Workload: *workload,
		runID: strconv.FormatInt(time.Now().UnixNano(), 36),
	}
	if p.Tenants < 1 || p.Clients < 1 || p.Requests < 1 || p.Batch < 1 {
		fail(fmt.Errorf("tenants, clients, requests, batch must all be >= 1"))
	}
	if _, err := parseWorkload(p.Workload); err != nil {
		fail(err)
	}

	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        p.Clients + 8,
			MaxIdleConnsPerHost: p.Clients + 8,
		},
	}

	if err := waitReady(hc, p.Addr, *wait); err != nil {
		fail(err)
	}
	if err := createTenants(hc, p); err != nil {
		fail(err)
	}

	// Baseline scrape: step counts before this run's traffic, so the
	// acked-vs-committed check below works against a server that already
	// holds state (reruns, recovery runs).
	baseline := make(map[string]int64, p.Tenants)
	if p.Seq {
		reports, _, err := scrapeTenants(hc, p)
		if err != nil {
			fail(err)
		}
		for _, tr := range reports {
			baseline[tr.Name] = tr.Steps
		}
	}

	// Drive: each client is pinned to one tenant (round-robin) and runs a
	// seeded random-walk workload — deterministic per client index.
	stats := make([]clientStats, p.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = driveClient(hc, p, c)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	// Aggregate, tracking acked batches and unresolved errors per tenant
	// (clients are pinned round-robin, so client c drives tenant c%T).
	var all []time.Duration
	res := results{WallSeconds: wall.Seconds()}
	ackedBy := make(map[string]int, p.Tenants)
	errsBy := make(map[string]int, p.Tenants)
	for c, st := range stats {
		res.Requests += st.reqs
		res.Errors += st.errs
		res.Acked += st.acked
		res.Duplicates += st.dups
		res.Resends += st.resends
		name := tenantName(p, c%p.Tenants)
		ackedBy[name] += st.acked
		errsBy[name] += st.errs
		all = append(all, st.lats...)
	}
	res.Updates = int64(res.Acked) * int64(p.Batch)
	res.ReqPerSec = float64(res.Requests) / wall.Seconds()
	res.UpdatesPerSec = float64(res.Updates) / wall.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.LatencyMs = latencySummary{
		P50Ms: pctMs(all, 0.50), P90Ms: pctMs(all, 0.90),
		P99Ms: pctMs(all, 0.99), MaxMs: pctMs(all, 1.00),
	}

	// Scrape every tenant's cost snapshot; traffic has quiesced, so the
	// check/health verdict is consistent.
	reports, silent, err := scrapeTenants(hc, p)
	if err != nil {
		fail(err)
	}
	// Exactly-once accounting: each tenant's step delta must match the
	// batches this run acked. Requests that errored out even after
	// retries MAY have committed server-side (the ack was lost), so they
	// widen the upper bound — but an acked batch that didn't commit, or a
	// batch that committed twice, is never explainable.
	var lost, doubled []string
	for i := range reports {
		tr := &reports[i]
		tr.StepDelta = tr.Steps - baseline[tr.Name]
		tr.Acked = ackedBy[tr.Name]
		if !p.Seq {
			continue
		}
		if tr.StepDelta < int64(tr.Acked) {
			lost = append(lost, fmt.Sprintf("%s: %d steps for %d acked batches", tr.Name, tr.StepDelta, tr.Acked))
		}
		if tr.StepDelta > int64(tr.Acked)+int64(errsBy[tr.Name]) {
			doubled = append(doubled, fmt.Sprintf("%s: %d steps for %d acked + %d unresolved",
				tr.Name, tr.StepDelta, tr.Acked, errsBy[tr.Name]))
		}
	}

	snap := snapshot{
		Kind: "topkd-loadgen",
		When: time.Now().UTC().Format(time.RFC3339),
		Env: map[string]any{
			"goVersion":  runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"numcpu":     runtime.NumCPU(),
		},
		Params:  p,
		Results: res,
		Tenants: reports,
	}

	fmt.Printf("loadgen: %d clients × %d reqs × %d updates over %d tenants in %.2fs\n",
		p.Clients, p.Requests, p.Batch, p.Tenants, res.WallSeconds)
	fmt.Printf("loadgen: %.0f req/s, %.0f updates/s, errors=%d acked=%d dups=%d resends=%d\n",
		res.ReqPerSec, res.UpdatesPerSec, res.Errors, res.Acked, res.Duplicates, res.Resends)
	fmt.Printf("loadgen: latency ms p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
		res.LatencyMs.P50Ms, res.LatencyMs.P90Ms, res.LatencyMs.P99Ms, res.LatencyMs.MaxMs)
	for _, tr := range reports {
		fmt.Printf("loadgen: tenant %s: steps=%d msgs=%d epochs=%d health=%s check=%s silentInvalid=%v\n",
			tr.Name, tr.Steps, tr.Messages, tr.Epochs, tr.Health,
			abbrev(tr.Check), tr.SilentInvalid)
	}

	if *out != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("loadgen: wrote %s\n", *out)
	}

	if len(lost) > 0 {
		fail(fmt.Errorf("LOST ACKED BATCHES: %v", lost))
	}
	if len(doubled) > 0 {
		fail(fmt.Errorf("DOUBLE-COMMITTED BATCHES: %v", doubled))
	}
	if res.Errors > 0 {
		fail(fmt.Errorf("%d request errors", res.Errors))
	}
	if silent > 0 {
		fail(fmt.Errorf("%d tenants served a SILENT INVALID answer (Check failed with Health fresh)", silent))
	}
}

func tenantName(p params, i int) string { return p.Prefix + strconv.Itoa(i) }

func waitReady(hc *http.Client, addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := hc.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s: %v", addr, wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// createTenants PUTs every tenant with the explicit config from the flags
// (an already-existing tenant is fine — reruns against a live server).
func createTenants(hc *http.Client, p params) error {
	var faults *serve.FaultConfig
	if p.Faults != "" {
		plan, err := topk.ParseFaultPlan(p.Faults)
		if err != nil {
			return err
		}
		faults = &serve.FaultConfig{
			Drop: plan.Drop, Dup: plan.Dup, Delay: plan.Delay, Retries: plan.Retries,
		}
		for _, c := range plan.Crashes {
			faults.Crashes = append(faults.Crashes,
				serve.CrashConfig{Node: c.Node, From: c.From, Until: c.Until})
		}
	}
	cfg := serve.Config{
		Nodes: p.Nodes, K: p.K, Eps: p.Eps, Monitor: p.Monitor, Seed: p.Seed,
		Faults: faults,
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < p.Tenants; i++ {
		req, err := http.NewRequest(http.MethodPut,
			p.Addr+"/v1/"+tenantName(p, i), bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
			return fmt.Errorf("create tenant %s: %s: %s",
				tenantName(p, i), resp.Status, bytes.TrimSpace(msg))
		}
	}
	return nil
}

// driveClient runs one client's closed loop: build a batch from its
// random walk, POST it (with this client's next sequence number when -seq
// is on), and record the latency. A failed attempt — transport error,
// 429, or 5xx — is resent with the SAME seq up to -retries times, backing
// off linearly (or as the server's Retry-After header instructs): against
// a durable server the seq guarantees the batch commits exactly once no
// matter which attempt lands.
func driveClient(hc *http.Client, p params, c int) clientStats {
	st := clientStats{lats: make([]time.Duration, 0, p.Requests)}
	tenant := tenantName(p, c%p.Tenants)
	url := p.Addr + "/v1/" + tenant + "/update"
	clientID := p.runID + "-c" + strconv.Itoa(c)
	rng := rand.New(rand.NewSource(int64(p.Seed) + int64(c)*7919))
	pickNode := nodePicker(p, rng)

	walk := make([]int64, p.Nodes)
	for i := range walk {
		walk[i] = 5000 + rng.Int63n(10001)
	}
	type upd struct {
		Node  int   `json:"node"`
		Value int64 `json:"value"`
	}
	batch := make([]upd, p.Batch)
	var buf bytes.Buffer

	for r := 0; r < p.Requests; r++ {
		for b := range batch {
			node := pickNode()
			walk[node] += rng.Int63n(401) - 200
			if walk[node] < 0 {
				walk[node] = 0
			}
			batch[b] = upd{Node: node, Value: walk[node]}
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(batch); err != nil {
			st.errs++
			st.reqs++
			continue
		}
		target := url
		if p.Seq {
			target = fmt.Sprintf("%s?client=%s&seq=%d", url, clientID, r+1)
		}
		st.reqs++
		acked := false
		for attempt := 0; attempt <= p.Retries; attempt++ {
			if attempt > 0 {
				st.resends++
			}
			t0 := time.Now()
			resp, err := hc.Post(target, "application/json", bytes.NewReader(buf.Bytes()))
			lat := time.Since(t0)
			if err != nil {
				sleepBackoff(p, attempt, "")
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				var ur struct {
					Duplicate bool `json:"duplicate"`
				}
				if json.Unmarshal(body, &ur) == nil && ur.Duplicate {
					st.dups++
				}
				st.acked = st.acked + 1
				st.lats = append(st.lats, lat)
				acked = true
				break
			}
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
				sleepBackoff(p, attempt, resp.Header.Get("Retry-After"))
				continue
			}
			break // a 4xx is a permanent rejection; retrying cannot help
		}
		if !acked {
			st.errs++
		}
	}
	return st
}

// parseWorkload validates -workload and returns the zipf exponent (0 for
// uniform).
func parseWorkload(spec string) (float64, error) {
	if spec == "" || spec == "uniform" {
		return 0, nil
	}
	if s, ok := strings.CutPrefix(spec, "zipf:"); ok {
		exp, err := strconv.ParseFloat(s, 64)
		if err != nil || exp <= 1 {
			return 0, fmt.Errorf("workload %q: zipf exponent must be a number > 1", spec)
		}
		return exp, nil
	}
	return 0, fmt.Errorf("workload %q: want uniform or zipf:s", spec)
}

// nodePicker returns the per-batch node selector: uniform by default, or
// zipf-skewed over a per-client shuffled node order so the hot node set
// differs between clients (the skew is per tenant stream, not a single
// global hot node). Both draw only from rng, keeping the sequence a pure
// function of the client index and -seed.
func nodePicker(p params, rng *rand.Rand) func() int {
	exp, err := parseWorkload(p.Workload)
	if err != nil || exp == 0 {
		return func() int { return rng.Intn(p.Nodes) }
	}
	z := rand.NewZipf(rng, exp, 1, uint64(p.Nodes-1))
	order := rng.Perm(p.Nodes)
	return func() int { return order[int(z.Uint64())] }
}

// sleepBackoff waits before a retry: the server's Retry-After seconds when
// given, otherwise the base backoff growing linearly with the attempt.
func sleepBackoff(p params, attempt int, retryAfter string) {
	if p.Retries == 0 {
		return
	}
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			time.Sleep(time.Duration(secs) * time.Second)
			return
		}
	}
	time.Sleep(p.backoff * time.Duration(attempt+1))
}

func scrapeTenants(hc *http.Client, p params) ([]tenantReport, int, error) {
	var reports []tenantReport
	silent := 0
	for i := 0; i < p.Tenants; i++ {
		name := tenantName(p, i)
		resp, err := hc.Get(p.Addr + "/v1/" + name + "/cost")
		if err != nil {
			return nil, 0, err
		}
		var c costScrape
		err = json.NewDecoder(resp.Body).Decode(&c)
		resp.Body.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("scrape %s/cost: %v", name, err)
		}
		if c.SilentInvalid {
			silent++
		}
		reports = append(reports, tenantReport{
			Name: name, Steps: c.Steps, Messages: c.Messages, Epochs: c.Epochs,
			Check: c.Check, Health: c.Health.State, SilentInvalid: c.SilentInvalid,
		})
	}
	return reports, silent, nil
}

func pctMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func abbrev(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	os.Exit(1)
}
