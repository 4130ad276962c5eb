package main

import (
	"bytes"
	"testing"

	"topkmon/topk"
)

// TestCheckCatchesDroppedAndReordered serves the check what a server that
// lost or reordered one batch would serve, and requires a failure.
func TestCheckCatchesDroppedAndReordered(t *testing.T) {
	w := mustWorkload(t, "churn")
	acked := tenantBatches(newTrace(w, 3).phase(1, w.Rate), w.Tenants)[0]
	good, err := replayTenant(w, 0, acked)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScrape(w, 0, acked, good); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}

	mid := len(acked) / 2
	dropped := append(append([][]topk.Update{}, acked[:mid]...), acked[mid+1:]...)
	reordered := append([][]topk.Update{}, acked...)
	reordered[mid], reordered[mid+1] = reordered[mid+1], reordered[mid]
	for name, served := range map[string][][]topk.Update{"dropped": dropped, "reordered": reordered} {
		bodies, err := replayTenant(w, 0, served)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkScrape(w, 0, acked, bodies); err == nil {
			t.Errorf("%s batch not caught", name)
		} else {
			t.Logf("%s: %v", name, firstLine(err.Error()))
		}
	}
}

func firstLine(s string) string {
	if i := bytes.IndexByte([]byte(s), '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestDecoratorsByteIdentical runs the churn and bulk traces through a
// monitor on the timing decorators and through a plain one: outputs after
// every step, and Cost at the end, must be identical.
func TestDecoratorsByteIdentical(t *testing.T) {
	for _, name := range []string{"churn", "bulk"} {
		w := mustWorkload(t, name)
		batches := tenantBatches(newTrace(w, 5).phase(1, w.Rate), w.Tenants)[0]
		st := &engineStats{}
		decorated, err := newTracedMonitor(w, 0, st)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := newTenantMonitor(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		for s, b := range batches {
			if err := decorated.UpdateBatch(b); err != nil {
				t.Fatal(err)
			}
			if err := plain.UpdateBatch(b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderTopK(decorated), renderTopK(plain)) {
				t.Fatalf("%s step %d: outputs differ", name, s)
			}
		}
		if !bytes.Equal(renderCost(decorated), renderCost(plain)) {
			t.Errorf("%s: Cost differs:\n%s%s", name, renderCost(decorated), renderCost(plain))
		}
		var calls int64
		for _, c := range st.calls {
			calls += c
		}
		if calls == 0 || st.protoNs == 0 {
			t.Errorf("%s: decorators saw no calls", name)
		}
	}
}
