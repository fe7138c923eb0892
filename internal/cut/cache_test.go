package cut

import "testing"

// chainClassifier builds a linear majority chain: node 0 constant, nodes
// 1..nPI inputs, every later gate consuming the three preceding nodes.
func chainClassifier(nPI int) Classifier {
	return func(i int) (Role, [3]int32, int) {
		switch {
		case i == 0:
			return Free, [3]int32{}, 0
		case i <= nPI:
			return Leaf, [3]int32{}, 0
		default:
			return Gate, [3]int32{int32(i - 1), int32(i - 2), int32(i - 3)}, 3
		}
	}
}

// Incremental extension must be equivalent to one-shot enumeration.
func TestCacheIncrementalExtend(t *testing.T) {
	const numNodes = 60
	cl := chainClassifier(4)
	whole := NewCache(4, 5)
	whole.Extend(numNodes, cl)
	inc := NewCache(4, 5)
	for n := 10; n <= numNodes; n += 10 {
		inc.Extend(n, cl)
	}
	if !cachesEqual(whole, inc) {
		t.Fatal("incremental Extend differs from one-shot enumeration")
	}
}

func TestCacheReset(t *testing.T) {
	cl := chainClassifier(3)
	c := NewCache(3, 4)
	c.Extend(30, cl)
	c.Reset()
	if c.NumNodes() != 0 {
		t.Fatalf("NumNodes after Reset = %d", c.NumNodes())
	}
	c.Extend(30, cl)
	ref := NewCache(3, 4)
	ref.Extend(30, cl)
	if !cachesEqual(c, ref) {
		t.Fatal("Reset + Extend differs from fresh enumeration")
	}
}

func cachesEqual(a, b *Cache) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.NumCuts(i) != b.NumCuts(i) {
			return false
		}
		for j := 0; j < a.NumCuts(i); j++ {
			av, bv := a.Leaves(i, j), b.Leaves(i, j)
			if len(av) != len(bv) {
				return false
			}
			for x := range av {
				if av[x] != bv[x] {
					return false
				}
			}
		}
	}
	return true
}

// The arena-backed path must dominance-filter: no cut may be a superset of
// another cut of the same node.
func TestCacheDominanceFiltered(t *testing.T) {
	cl := chainClassifier(5)
	c := NewCache(4, 16)
	c.Extend(40, cl)
	for i := 0; i < c.NumNodes(); i++ {
		n := c.NumCuts(i)
		// The trivial cut {i} is appended last and legitimately dominates
		// nothing (no other cut contains i); check non-trivial pairs.
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if x == y {
					continue
				}
				a, b := c.Leaves(i, x), c.Leaves(i, y)
				if len(a) == 1 && int(a[0]) == i {
					continue
				}
				if subset(a, b) && len(a) < len(b) {
					t.Fatalf("node %d: cut %v dominates kept cut %v", i, a, b)
				}
			}
		}
	}
}
