package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMultiTenantStress hammers one server with N tenants × M goroutines
// of interleaved update/read/subscribe/reset traffic over a real listener.
// It asserts nothing about outputs (per-tenant interleaving is the
// clients' business) — only that every response is an expected status and
// nothing races, deadlocks, or panics; the CI -race job runs it with the
// detector on.
func TestMultiTenantStress(t *testing.T) {
	const (
		tenants    = 4
		goroutines = 3 // per tenant
	)
	iters := 120
	if testing.Short() {
		iters = 40
	}
	srv := newTestServer(t, Options{Defaults: Config{Nodes: 16, K: 2}, Lazy: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := ts.Client()

	// One draining SSE consumer per tenant, attached up front.
	for i := 0; i < tenants; i++ {
		putTenant(t, hc, ts.URL, fmt.Sprintf("s%d", i))
		c := newSSEClient(t, ts.URL, fmt.Sprintf("s%d", i))
		defer c.Close()
		go func() {
			for range c.Events {
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants*goroutines)
	for ten := 0; ten < tenants; ten++ {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(ten, g int) {
				defer wg.Done()
				base := ts.URL + fmt.Sprintf("/v1/s%d", ten)
				for i := 0; i < iters; i++ {
					var resp *http.Response
					var err error
					switch i % 6 {
					case 0, 1, 2:
						body := fmt.Sprintf(`[{"node":%d,"value":%d}]`, (g*7+i)%16, 100+i)
						resp, err = hc.Post(base+"/update", "application/json", strings.NewReader(body))
					case 3:
						resp, err = hc.Get(base + "/topk")
					case 4:
						resp, err = hc.Get(base + "/cost")
					default:
						if g == 0 && i%24 == 5 {
							resp, err = hc.Post(base+"/reset", "application/json", strings.NewReader(`{"seed":3}`))
						} else {
							resp, err = hc.Get(base + "/health")
						}
					}
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("tenant s%d op %d: status %d", ten, i, resp.StatusCode)
						return
					}
				}
			}(ten, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTenantIsolation pins the pool's central liveness property: one
// tenant's lifecycle churn — concurrent Create/Close of one neighbor and
// Reset of another — can neither stall nor corrupt a steady tenant's
// ingest. The pool lock covers only map mutation; monitors are built and
// closed outside it.
func TestTenantIsolation(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 100
	}
	srv := newTestServer(t, Options{Defaults: Config{Nodes: 16, K: 2}, Lazy: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := ts.Client()

	stop := make(chan struct{})
	var churns, resets atomic.Int64
	var wg sync.WaitGroup
	// Churner: create a victim, feed it, delete it, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("victim%d", i%3)
			req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/"+name,
				strings.NewReader(`{"nodes":32}`))
			if resp, err := hc.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if resp, err := hc.Post(ts.URL+"/v1/"+name+"/flush", "application/json", nil); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/"+name, nil)
			if resp, err := hc.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			churns.Add(1)
		}
	}()
	// Resetter: continuously rewinds its own tenant.
	putTenant(t, hc, ts.URL, "resettee")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf(`{"seed":%d}`, i)
			if resp, err := hc.Post(ts.URL+"/v1/resettee/reset", "application/json", strings.NewReader(body)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resets.Add(1)
		}
	}()

	// The steady tenant: every single batch must land, promptly and in
	// order, while the neighbors churn.
	putTenant(t, hc, ts.URL, "steady")
	start := time.Now()
	for i := 0; i < steps; i++ {
		body := fmt.Sprintf(`[{"node":%d,"value":%d}]`, i%16, 1000+i)
		resp, err := hc.Post(ts.URL+"/v1/steady/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("steady ingest %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("steady ingest %d: status %d", i, resp.StatusCode)
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	resp, err := hc.Get(ts.URL + "/v1/steady/cost")
	if err != nil {
		t.Fatal(err)
	}
	var cost costResponse
	json.NewDecoder(resp.Body).Decode(&cost)
	resp.Body.Close()
	if cost.Steps != int64(steps) {
		t.Fatalf("steady tenant committed %d steps, want %d", cost.Steps, steps)
	}
	if cost.Check != "ok" {
		t.Fatalf("steady tenant check: %s", cost.Check)
	}
	if churns.Load() == 0 || resets.Load() == 0 {
		t.Fatalf("vacuous run: churns=%d resets=%d", churns.Load(), resets.Load())
	}
	// Liveness, generously bounded: 300 tiny batches finish in well under a
	// minute unless ingest waited on a neighbor's lifecycle.
	if elapsed > time.Minute {
		t.Fatalf("steady ingest of %d batches took %s — stalled behind tenant churn", steps, elapsed)
	}
}
