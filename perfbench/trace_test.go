package main

import (
	"bytes"
	"testing"

	"topkmon/topk"
)

func mustWorkload(t *testing.T, name string) Workload {
	t.Helper()
	st, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// traceBytes flattens a phase into one byte string: due, tenant and wire
// bytes of every request, in order.
func traceBytes(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.WriteString(string(rune(r.tenant)))
		b.Write([]byte{byte(r.due), byte(r.due >> 8), byte(r.due >> 16), byte(r.due >> 24), byte(r.due >> 32)})
		b.Write(r.wire)
	}
	return b.Bytes()
}

func TestTraceDeterministic(t *testing.T) {
	for _, name := range []string{"churn", "bulk", "durable"} {
		w := mustWorkload(t, name)
		a := newTrace(w, 7).phase(0.5, w.Rate)
		b := newTrace(w, 7).phase(0.5, w.Rate)
		c := newTrace(w, 8).phase(0.5, w.Rate)
		if len(a) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if !bytes.Equal(traceBytes(a), traceBytes(b)) {
			t.Errorf("%s: same seed gave different traces", name)
		}
		if bytes.Equal(traceBytes(a), traceBytes(c)) {
			t.Errorf("%s: different seeds gave the same trace", name)
		}
		// Per-tenant order: due times rise within each tenant, and the
		// batches replay identically.
		last := map[int]int64{}
		for _, r := range a {
			if r.due < last[r.tenant] {
				t.Fatalf("%s: tenant %d out of order", name, r.tenant)
			}
			last[r.tenant] = r.due
		}
		ba, bb := tenantBatches(a, w.Tenants), tenantBatches(b, w.Tenants)
		for i := range ba {
			if len(ba[i]) == 0 || len(ba[i]) != len(bb[i]) {
				t.Fatalf("%s: tenant %d: %d vs %d batches", name, i, len(ba[i]), len(bb[i]))
			}
		}
	}
	w := mustWorkload(t, "items")
	a, b, c := itemsTrace(w, 7, 20), itemsTrace(w, 7, 20), itemsTrace(w, 8, 20)
	same, diff := true, false
	for i := range a {
		for j := range a[i] {
			same = same && a[i][j] == b[i][j]
			diff = diff || a[i][j] != c[i][j]
		}
	}
	if !same || !diff {
		t.Errorf("items: same seed identical %v, different seeds differ %v", same, diff)
	}
}

// replayCost commits a tenant's batches into a directly built monitor.
func replayCost(t *testing.T, w Workload, i int, batches [][]topk.Update) (topk.Cost, int64) {
	t.Helper()
	m, err := newTenantMonitor(w, i)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, b := range batches {
		if err := m.UpdateBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return m.Cost(), m.Epochs()
}

// TestWorkloadProperties guards what each workload was chosen for: churn
// restarts an epoch at least once per 10 steps, bulk stays under 0.01
// messages per update. Each is replayed directly, on several seeds.
func TestWorkloadProperties(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		w := mustWorkload(t, "churn")
		bs := tenantBatches(newTrace(w, seed).phase(2, w.Rate), w.Tenants)
		c, epochs := replayCost(t, w, 0, bs[0])
		if float64(epochs)/float64(c.Steps) < 0.1 {
			t.Errorf("churn seed %d: %d epochs in %d steps, want at least one per 10", seed, epochs, c.Steps)
		}

		w = mustWorkload(t, "bulk")
		bs = tenantBatches(newTrace(w, seed).phase(2, w.Rate), w.Tenants)
		c, _ = replayCost(t, w, 0, bs[0])
		n := 0
		for _, b := range bs[0] {
			n += len(b)
		}
		if r := float64(c.Messages) / float64(n); r >= 0.01 {
			t.Errorf("bulk seed %d: %.4f msgs/update, want < 0.01", seed, r)
		}
	}
}
