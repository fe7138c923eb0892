package cut

import (
	"reflect"
	"testing"

	"repro/internal/tt"
)

// A tiny 2-input AND DAG: 0=const, 1=a, 2=b, 3=a&b, 4=(a&b)&a.
func classify(i int) (Role, [3]int32, int) {
	switch i {
	case 0:
		return Free, [3]int32{}, 0
	case 1, 2:
		return Leaf, [3]int32{}, 0
	case 3:
		return Gate, [3]int32{1, 2}, 2
	case 4:
		return Gate, [3]int32{3, 1}, 2
	}
	return Skip, [3]int32{}, 0
}

// cutsOf copies node i's cuts out of the arena.
func cutsOf(c *Cache, i int) [][]int32 {
	cuts := make([][]int32, c.NumCuts(i))
	for j := range cuts {
		cuts[j] = append([]int32{}, c.Leaves(i, j)...)
	}
	return cuts
}

func TestEnumerate(t *testing.T) {
	c := NewCache(4, 8)
	c.Extend(5, classify)
	if cuts := cutsOf(c, 1); len(cuts) != 1 || cuts[0][0] != 1 {
		t.Fatalf("leaf cut wrong: %v", cuts)
	}
	if cuts := cutsOf(c, 0); len(cuts) != 1 || len(cuts[0]) != 0 {
		t.Fatalf("free cut wrong: %v", cuts)
	}
	// Node 3: {1,2} plus the trivial {3}.
	cuts := cutsOf(c, 3)
	if len(cuts) != 2 || !reflect.DeepEqual(cuts[0], []int32{1, 2}) {
		t.Fatalf("gate cuts wrong: %v", cuts)
	}
	if last := cuts[len(cuts)-1]; !reflect.DeepEqual(last, []int32{3}) {
		t.Fatalf("trivial cut must be last: %v", cuts)
	}
	// Node 4 sees {1,2} (dominates {1,3}) and {1,3}, plus trivial {4}.
	found := false
	for _, l := range cutsOf(c, 4) {
		if reflect.DeepEqual(l, []int32{1, 2}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected {1,2} cut at node 4: %v", cutsOf(c, 4))
	}
}

func TestEnumerateMaxCuts(t *testing.T) {
	c := NewCache(4, 1)
	c.Extend(5, classify)
	// maxCuts=1: one merged cut plus the trivial one.
	if c.NumCuts(4) != 2 {
		t.Fatalf("maxCuts not enforced: %v", cutsOf(c, 4))
	}
}

func TestFunctionDense(t *testing.T) {
	c := NewCache(4, 8)
	c.Extend(5, classify)
	and := func(idx int, rec func(int) tt.TT) tt.TT {
		_, fanins, _ := classify(idx)
		return rec(int(fanins[0])).And(rec(int(fanins[1])))
	}
	var scr FuncScratch
	for j := 0; j < c.NumCuts(4); j++ {
		leaves := c.Leaves(4, j)
		if len(leaves) != 2 {
			continue
		}
		// Twice through the same scratch: the epoch reset must isolate
		// consecutive walks.
		for rep := 0; rep < 2; rep++ {
			f := FunctionDense(4, leaves, 2, &scr, and)
			// (a&b)&a == a&b over leaves {1,2}.
			if !f.Equal(tt.Var(2, 0).And(tt.Var(2, 1))) {
				t.Fatalf("cut function wrong: %s", f.Hex())
			}
		}
	}
}
