package idset

import (
	"maps"
	"slices"
	"testing"
)

// FuzzIDSet runs random op tapes against three Sets and a map[int]bool +
// sort reference, checking after every op that membership, counts,
// iteration order, AppendTo and pairwise Intersects agree. Universe sizes
// up to 300 cross several word boundaries.
func FuzzIDSet(f *testing.F) {
	f.Add(uint16(16), []byte{})
	f.Add(uint16(63), []byte{0, 0, 62, 0, 1, 63, 3, 2, 0, 4, 1, 2, 0, 1, 0, 62})
	f.Add(uint16(64), []byte{0, 0, 63, 0, 0, 64, 0, 1, 0, 4, 2, 0, 1, 2, 2, 0})
	f.Add(uint16(299), []byte{0, 0, 255, 0, 1, 44, 0, 2, 1, 4, 0, 0, 1, 3, 1, 0, 1, 0, 255, 2, 0, 0})
	// add 5, 70, 9 to set 0 and 70 to set 1, del 9, copy set 0 into set 2,
	// then set 2 := set 0 \ set 1.
	f.Add(uint16(129), []byte{0, 0, 5, 0, 0, 0, 70, 0, 0, 0, 9, 0, 0, 1, 70, 0, 1, 0, 9, 3, 2, 0, 4, 2, 0})
	f.Fuzz(func(t *testing.T, nSel uint16, tape []byte) {
		n := int(nSel)%300 + 1
		sets := [3]Set{New(n), New(n), New(n)}
		ref := [3]map[int]bool{{}, {}, {}}
		for len(tape) >= 3 {
			op, x, y := tape[0]%5, int(tape[1])%3, int(tape[2])
			tape = tape[3:]
			switch op {
			case 0: // add: y (plus a high byte, if any) is the id
				id := y
				if len(tape) > 0 {
					id += int(tape[0]) << 8
					tape = tape[1:]
				}
				id %= n
				sets[x].Add(id)
				ref[x][id] = true
			case 1: // del
				id := y % n
				sets[x].Del(id)
				delete(ref[x], id)
			case 2: // clear
				sets[x].Clear()
				clear(ref[x])
			case 3: // copy set y into set x
				src := y % 3
				sets[x].Copy(&sets[src])
				ref[x] = maps.Clone(ref[src])
			case 4: // set x := set y \ set (y+1), operands may alias x
				a, b := y%3, (y+1)%3
				diff := map[int]bool{}
				for id := range ref[a] {
					if !ref[b][id] {
						diff[id] = true
					}
				}
				sets[x].AndNot(&sets[a], &sets[b])
				ref[x] = diff
			}
			for i := range sets {
				checkIDSet(t, n, &sets[i], ref[i])
				for j := range sets {
					want := false
					for id := range ref[i] {
						want = want || ref[j][id]
					}
					if got := sets[i].Intersects(&sets[j]); got != want {
						t.Fatalf("set %d Intersects set %d = %v, reference %v", i, j, got, want)
					}
				}
			}
		}
	})
}

func checkIDSet(t *testing.T, n int, s *Set, ref map[int]bool) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len %d, reference %d", s.Len(), len(ref))
	}
	for id := 0; id < n; id++ {
		if s.Has(id) != ref[id] {
			t.Fatalf("Has(%d) = %v, reference %v", id, s.Has(id), ref[id])
		}
	}
	want := make([]int, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	slices.Sort(want)
	var got []int
	for id := range s.All() {
		got = append(got, id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("iteration %v, reference %v", got, want)
	}
	for id := range s.All() {
		if id != want[0] {
			t.Fatalf("first member %d, reference %d", id, want[0])
		}
		break // an early exit must stop the iterator cleanly
	}
	if app := s.AppendTo([]int{-1}); !slices.Equal(app[1:], want) || app[0] != -1 {
		t.Fatalf("AppendTo %v, reference %v after -1", app, want)
	}
}
