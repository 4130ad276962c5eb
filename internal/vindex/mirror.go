package vindex

import (
	"slices"

	"topkmon/internal/filter"
)

// Mirror is the server-side filter-interval mirror that makes the violation
// predicate routable: the server assigns every filter (SetFilter,
// SetTagFilter, BroadcastRule), so the engine owning the nodes can record
// each assigned interval next to the node's current value and maintain the
// exact violator set incrementally — the (value-bucket ∩ mirrored-interval)
// set operation evaluated not per query but per update, which makes every
// violation sweep of a quiet step O(1) instead of the O(n) full scan the
// ROADMAP's BENCH_PR3 numbers price at ~136µs (n=4096) to ~674µs (n=16384)
// per step.
//
// # Ownership and update points
//
// A Mirror belongs to the engine owning the mirrored nodes and must be
// updated by the same code path that mutates the node, immediately after
// the mutation:
//
//   - Observe/Advance  → SetValue(id, v)
//   - SetFilter, SetTagFilter → SetFilter(id, iv)
//   - ApplyFilterRule  → SetFilter(id, nd.Filter) after the rule applied
//     (the mirror needs no tag state: it reads the node's derived filter)
//   - engine Reset     → Reset()
//
// Because the mirror update is adjacent to the node mutation, layers above
// the engine cannot desync it: the fault injector's delayed or dropped
// filter assignments simply reach — or never reach — the engine's
// SetFilter, and the mirror tracks exactly what the nodes actually hold
// (property-tested by FuzzFilterMirror and the chaos routing suites).
//
// # Exactness
//
// Unlike the value buckets, the mirror is not a coarsening: Violators
// returns exactly the ids whose value lies outside their filter. Engines
// still evaluate Match per candidate — the byte-equality proof obligation
// treats the scan list as a superset like any other routed scan.
type Mirror struct {
	flt []filter.Interval // mirrored filter per node
	val []int64           // mirrored value per node

	// vio holds the violating ids in arbitrary order; pos[id] is the
	// id's position in vio, or -1. Swap-remove keeps both O(1) per update.
	vio []int32
	pos []int32
}

// NewMirror returns a mirror over the ids [0, n) in the engine's
// construction state: every value 0, every filter all-admitting, no
// violators.
func NewMirror(n int) *Mirror {
	m := &Mirror{
		flt: make([]filter.Interval, n),
		val: make([]int64, n),
		vio: make([]int32, 0, n),
		pos: make([]int32, n),
	}
	m.Reset()
	return m
}

// Reset returns the mirror to the engine's post-Reset node state: value 0,
// the all-admitting filter, no violators. It reuses the arrays and
// allocates nothing.
func (m *Mirror) Reset() {
	for i := range m.flt {
		m.flt[i] = filter.All
		m.val[i] = 0
		m.pos[i] = -1
	}
	m.vio = m.vio[:0]
}

// SetValue records that node id now holds value v.
func (m *Mirror) SetValue(id int, v int64) {
	m.val[id] = v
	m.recheck(id)
}

// SetFilter records that node id now holds filter iv.
func (m *Mirror) SetFilter(id int, iv filter.Interval) {
	m.flt[id] = iv
	m.recheck(id)
}

// recheck moves node id in or out of the violator set to match the
// mirrored (value, filter) pair; both directions are O(1).
func (m *Mirror) recheck(id int) {
	want := !m.flt[id].Contains(m.val[id])
	have := m.pos[id] >= 0
	switch {
	case want && !have:
		m.pos[id] = int32(len(m.vio))
		m.vio = append(m.vio, int32(id))
	case !want && have:
		p := m.pos[id]
		last := m.vio[len(m.vio)-1]
		m.vio[p] = last
		m.pos[last] = p
		m.vio = m.vio[:len(m.vio)-1]
		m.pos[id] = -1
	}
}

// Violating reports whether the mirror holds node id as a violator.
func (m *Mirror) Violating(id int) bool { return m.pos[id] >= 0 }

// Interval returns the mirrored filter of node id (test and invariant
// scaffolding).
func (m *Mirror) Interval(id int) filter.Interval { return m.flt[id] }

// Value returns the mirrored value of node id (test and invariant
// scaffolding).
func (m *Mirror) Value(id int) int64 { return m.val[id] }

// NumViolating returns the current violator count.
func (m *Mirror) NumViolating() int { return len(m.vio) }

// Len returns the number of mirrored ids.
func (m *Mirror) Len() int { return len(m.flt) }

// AppendViolators appends the violating ids to dst in ascending id order,
// reusing dst's capacity — the form the engine's scan list needs to
// preserve its id-ordered report contract. Sorting costs O(σ log σ) in the
// violator count σ; a quiet step (σ = 0) appends nothing.
func (m *Mirror) AppendViolators(dst []int32) []int32 {
	n := len(dst)
	dst = append(dst, m.vio...)
	slices.Sort(dst[n:])
	return dst
}
