package aig

import (
	"math/rand"
	"testing"
)

// TestCutFunctionMatchesSimulation checks every cut function against
// simulation: evaluated at its leaves' simulated values, the cut function of
// every gate reproduces the gate's own value on all 64 patterns, for the
// rewrite (4) and refactor (10) cut sizes.
func TestCutFunctionMatchesSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		a := randomAIG(r, 8+r.Intn(6), 60+r.Intn(60))
		in := make([]uint64, a.NumInputs())
		for i := range in {
			in[i] = r.Uint64()
		}
		vals := a.EvalWord(in)
		for _, k := range []int{4, 10} {
			cuts := a.CutSet(k, 8)
			for root := range a.nodes {
				if a.nodes[root].kind != kindAnd {
					continue
				}
				for j := 0; j < cuts.NumCuts(root); j++ {
					leaves := cuts.Leaves(root, j)
					f := a.CutFunction(root, leaves)
					for p := 0; p < 64; p++ {
						x := 0
						for i, l := range leaves {
							x |= int(vals[l]>>p&1) << i
						}
						if f.Bit(x) != (vals[root]>>p&1 == 1) {
							t.Fatalf("trial %d k=%d: node %d cut %v: function %s disagrees with simulation at pattern %d",
								trial, k, root, leaves, f.Hex(), p)
						}
					}
				}
			}
		}
	}
}
