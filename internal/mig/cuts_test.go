package mig

import (
	"math/rand"
	"testing"
)

// TestCutFunctionMatchesSimulation checks every cut function against
// simulation: evaluated at its leaves' simulated values, the cut function of
// every gate reproduces the gate's own value on all 64 patterns, for the
// cut sizes the rewriting passes use.
func TestCutFunctionMatchesSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		m := randomMIG(r, 6+r.Intn(4), 40+r.Intn(60))
		in := make([]uint64, m.NumInputs())
		for i := range in {
			in[i] = r.Uint64()
		}
		vals := m.EvalWord(in)
		for _, k := range []int{4, 6} {
			cuts := m.CutSet(k, 8)
			for root := range m.nodes {
				if m.nodes[root].kind != kindMaj {
					continue
				}
				for j := 0; j < cuts.NumCuts(root); j++ {
					leaves := cuts.Leaves(root, j)
					f := m.cutFuncW(root, leaves)
					for p := 0; p < 64; p++ {
						x := 0
						for i, l := range leaves {
							x |= int(vals[l]>>p&1) << i
						}
						if f>>x&1 != vals[root]>>p&1 {
							t.Fatalf("trial %d k=%d: node %d cut %v: function %#x disagrees with simulation at pattern %d",
								trial, k, root, leaves, f, p)
						}
					}
				}
			}
		}
	}
}
