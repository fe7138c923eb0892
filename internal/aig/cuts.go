package aig

import (
	"repro/internal/cut"
	"repro/internal/tt"
)

// classifyCut adapts the node table to the cut enumerator. Constants count
// as leaves here: an AND of a constant is simplified away by strashing, so
// constant fanins are not worth special cut capacity handling.
func (a *AIG) classifyCut(i int) (cut.Role, [3]int32, int) {
	switch a.nodes[i].kind {
	case kindConst, kindPI:
		return cut.Leaf, [3]int32{}, 0
	case kindAnd:
		f := a.nodes[i].fanin
		return cut.Gate, [3]int32{int32(f[0].Node()), int32(f[1].Node()), 0}, 2
	}
	return cut.Skip, [3]int32{}, 0
}

// CutSet returns the AIG's arena-backed cut cache for the given parameters,
// enumerating only nodes appended since the previous call. The cache is
// owned by the AIG; its views are invalidated by And.
func (a *AIG) CutSet(k, maxCuts int) *cut.Cache {
	if a.cutCache == nil || a.cutCache.K() != k || a.cutCache.MaxCuts() != maxCuts {
		a.cutCache = cut.NewCache(k, maxCuts)
	}
	a.cutCache.Extend(len(a.nodes), a.classifyCut)
	return a.cutCache
}

// combineTT evaluates one node during a cone walk.
func (a *AIG) combineTT(nvars int) func(idx int, rec func(int) tt.TT) tt.TT {
	return func(idx int, rec func(int) tt.TT) tt.TT {
		nd := &a.nodes[idx]
		if nd.kind != kindAnd {
			// Constant node outside the cut.
			return tt.Const(nvars, false)
		}
		f0 := rec(nd.fanin[0].Node())
		if nd.fanin[0].Neg() {
			f0 = f0.Not()
		}
		f1 := rec(nd.fanin[1].Node())
		if nd.fanin[1].Neg() {
			f1 = f1.Not()
		}
		return f0.And(f1)
	}
}

// CutFunction computes the truth table of node root over the cut leaves
// (leaf i is variable i; at most tt.MaxVars of them), typically a view from
// CutSet, memoized in the AIG's reusable scratch.
func (a *AIG) CutFunction(root int, leaves []int32) tt.TT {
	n := len(leaves)
	return cut.FunctionDense(root, leaves, n, &a.fscr, a.combineTT(n))
}
