package vindex

import (
	"slices"
	"testing"

	"topkmon/internal/filter"
	"topkmon/internal/rngx"
)

// checkMirror verifies the mirror's full structural contract against
// reference value/filter vectors: the violator set holds exactly the ids
// whose value lies outside their filter, each exactly once, with pos/vio
// agreeing, and AppendViolators emits them in ascending id order.
func checkMirror(t *testing.T, m *Mirror, vals []int64, flts []filter.Interval) {
	t.Helper()
	if m.Len() != len(vals) {
		t.Fatalf("mirror holds %d ids, want %d", m.Len(), len(vals))
	}
	want := 0
	for id := range vals {
		wantVio := !flts[id].Contains(vals[id])
		if wantVio {
			want++
		}
		if m.Violating(id) != wantVio {
			t.Fatalf("Violating(%d) = %v, want %v (value %d filter %+v)",
				id, m.Violating(id), wantVio, vals[id], flts[id])
		}
		if m.Interval(id) != flts[id] {
			t.Fatalf("Interval(%d) = %+v, want %+v", id, m.Interval(id), flts[id])
		}
		if m.Value(id) != vals[id] {
			t.Fatalf("Value(%d) = %d, want %d", id, m.Value(id), vals[id])
		}
	}
	if m.NumViolating() != want {
		t.Fatalf("NumViolating = %d, want %d", m.NumViolating(), want)
	}
	for p, id := range m.vio {
		if m.pos[id] != int32(p) {
			t.Fatalf("pos[%d] = %d, vio has it at %d", id, m.pos[id], p)
		}
	}
	got := m.AppendViolators(nil)
	if !slices.IsSorted(got) {
		t.Fatalf("AppendViolators not ascending: %v", got)
	}
	if len(got) != want {
		t.Fatalf("AppendViolators emitted %d ids, want %d", len(got), want)
	}
}

// TestMirrorRandomOps drives the mirror with random value and filter
// assignments (including the re-assign-same and empty-filter edges) and
// checks the violator set stays exact after every single operation.
func TestMirrorRandomOps(t *testing.T) {
	const n, ops = 61, 4000
	r := rngx.New(99)
	m := NewMirror(n)
	vals := make([]int64, n)
	flts := make([]filter.Interval, n)
	for i := range flts {
		flts[i] = filter.All
	}
	checkMirror(t, m, vals, flts)

	for op := 0; op < ops; op++ {
		i := r.Intn(n)
		switch r.Intn(5) {
		case 0, 1: // value move (small domain to force in/out flips)
			v := r.Int63n(64)
			vals[i] = v
			m.SetValue(i, v)
		case 2: // narrow filter
			lo := r.Int63n(64)
			iv := filter.Make(lo, lo+r.Int63n(8))
			flts[i] = iv
			m.SetFilter(i, iv)
		case 3: // empty filter: everything violates
			iv := filter.Make(9, 3)
			flts[i] = iv
			m.SetFilter(i, iv)
		default: // all-admitting filter: nothing violates
			flts[i] = filter.All
			m.SetFilter(i, filter.All)
		}
		checkMirror(t, m, vals, flts)
	}

	m.Reset()
	clear(vals)
	for i := range flts {
		flts[i] = filter.All
	}
	checkMirror(t, m, vals, flts)
}

// TestMirrorAppendViolatorsReuses pins the zero-allocation contract of the
// sweep path: AppendViolators reuses dst capacity and sorts only its own
// suffix.
func TestMirrorAppendViolatorsReuses(t *testing.T) {
	m := NewMirror(8)
	for _, id := range []int{6, 2, 4} {
		m.SetFilter(id, filter.Make(5, 5)) // value 0 → violating
	}
	buf := make([]int32, 1, 16)
	buf[0] = 99
	got := m.AppendViolators(buf)
	if &got[0] != &buf[0] {
		t.Error("AppendViolators reallocated despite sufficient capacity")
	}
	if want := []int32{99, 2, 4, 6}; !slices.Equal(got, want) {
		t.Errorf("AppendViolators = %v, want %v", got, want)
	}
}
