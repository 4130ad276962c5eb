// Package idset provides Set, a set of node ids 0..n−1: a bitset that keeps
// its own count and iterates in ascending id order. It is the one node-id
// set of the module. The protocols hold the partition V1/V2/V3 and the
// subsets S1, S2, S′1, S′2 of Section 5.2 in it, so their per-node unicasts
// and outputs come out in id order without sorting, and the lockstep engine
// holds its violator set in it. The package imports only the standard
// library.
package idset

import (
	"iter"
	"math/bits"
)

// Set is a set of the ids 0..n−1. The zero value is the empty set over no
// ids; construct with New. All operations between two sets require the
// same n.
type Set struct {
	words []uint64
	count int
}

// New returns the empty set over the ids 0..n−1.
func New(n int) Set { return Set{words: make([]uint64, (n+63)/64)} }

// Has reports whether i is a member.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<(i&63)) != 0 }

// Len returns the number of members.
func (s *Set) Len() int { return s.count }

// Add inserts i.
func (s *Set) Add(i int) {
	if !s.Has(i) {
		s.words[i>>6] |= 1 << (i & 63)
		s.count++
	}
}

// Del removes i.
func (s *Set) Del(i int) {
	if s.Has(i) {
		s.words[i>>6] &^= 1 << (i & 63)
		s.count--
	}
}

// Clear removes every member.
func (s *Set) Clear() {
	clear(s.words)
	s.count = 0
}

// All yields the members in ascending id order.
func (s *Set) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for w, word := range s.words {
			for ; word != 0; word &= word - 1 {
				if !yield(w<<6 | bits.TrailingZeros64(word)) {
					return
				}
			}
		}
	}
}

// AppendTo appends the members to dst in ascending id order.
func (s *Set) AppendTo(dst []int) []int {
	for i := range s.All() {
		dst = append(dst, i)
	}
	return dst
}

// Intersects reports whether s and o share a member.
func (s *Set) Intersects(o *Set) bool {
	for w, word := range s.words {
		if word&o.words[w] != 0 {
			return true
		}
	}
	return false
}

// Copy makes s equal to o.
func (s *Set) Copy(o *Set) {
	copy(s.words, o.words)
	s.count = o.count
}

// AndNot makes s the members of a that are not in b (a or b may be s).
func (s *Set) AndNot(a, b *Set) {
	s.count = 0
	for w := range s.words {
		s.words[w] = a.words[w] &^ b.words[w]
		s.count += bits.OnesCount64(s.words[w])
	}
}
