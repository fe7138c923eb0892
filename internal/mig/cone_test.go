package mig

import (
	"math/rand"
	"slices"
	"testing"
)

// coneOfMaps is the map-based walk coneOf replaced, kept as its
// reference: the cone's majority count (0 past limit) and its PIs with
// their occurrences, most first, then by node id.
func (m *MIG) coneOfMaps(s Signal, limit int) (int, []coneLeaf) {
	seen := map[int]bool{}
	leafCount := map[int]int{}
	var stack []int
	stack = append(stack, s.Node())
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		switch m.nodes[v].kind {
		case kindPI:
			leafCount[v]++
		case kindMaj:
			count++
			if count > limit {
				return 0, nil
			}
			for _, f := range m.nodes[v].fanin {
				if m.nodes[f.Node()].kind == kindPI {
					leafCount[f.Node()]++
				} else {
					stack = append(stack, f.Node())
				}
			}
		}
	}
	leaves := make([]int, 0, len(leafCount))
	for l := range leafCount {
		leaves = append(leaves, l)
	}
	for i := 1; i < len(leaves); i++ {
		for j := i; j > 0; j-- {
			a, b := leaves[j-1], leaves[j]
			if leafCount[b] > leafCount[a] || (leafCount[b] == leafCount[a] && b < a) {
				leaves[j-1], leaves[j] = b, a
			} else {
				break
			}
		}
	}
	out := make([]coneLeaf, len(leaves))
	for i, l := range leaves {
		out[i] = coneLeaf{node: l, count: leafCount[l]}
	}
	return count, out
}

// TestConeOfMatchesMaps compares coneOf with the map-based walk on every
// node of random MIGs, as root in both polarities, under limits that cut
// some cones off, reusing one leaf slice throughout.
func TestConeOfMatchesMaps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var leaves []coneLeaf
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(r, 3+r.Intn(10), 5+r.Intn(120))
		for _, limit := range []int{1, 8, 64} {
			for v := range m.nodes {
				for _, s := range []Signal{MakeSignal(v, false), MakeSignal(v, true)} {
					var n int
					n, leaves = m.coneOf(s, limit, leaves)
					wantN, want := m.coneOfMaps(s, limit)
					if n != wantN || !slices.Equal(leaves, want) {
						t.Fatalf("trial %d node %d limit %d: coneOf = %d %v, maps = %d %v", trial, v, limit, n, leaves, wantN, want)
					}
				}
			}
		}
	}
}
