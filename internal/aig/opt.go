package aig

import (
	"sort"

	"repro/internal/sop"
	"repro/internal/tt"
)

// Optimization passes in the style of ABC's resyn2 script: Balance (depth),
// Rewrite (size, 4-input cuts) and Refactor (size, the two smallest cuts of
// up to 10 leaves per node). Every pass is a topological rebuild; candidate
// structures are probed with checkpoint/rollback and accepted when they
// improve on the default reconstruction.

// checkpoint returns a rollback token.
func (a *AIG) checkpoint() int { return len(a.nodes) }

// rollback removes nodes created after the checkpoint. Strash deletion is
// value-guarded so an entry of a surviving node can never be evicted (see
// the MIG twin in internal/mig/rewrite.go), and the cut cache is truncated
// back to the checkpoint.
func (a *AIG) rollback(cp int) {
	for i := len(a.nodes) - 1; i >= cp; i-- {
		if a.nodes[i].kind == kindAnd {
			f := a.nodes[i].fanin
			a.strash.DeleteAbove([2]uint32{uint32(f[0]), uint32(f[1])}, int32(cp))
		}
	}
	a.nodes = a.nodes[:cp]
	if a.cutCache != nil {
		a.cutCache.Truncate(cp)
	}
}

// Balance rebuilds AND trees as balanced (minimum-depth) trees, the analogue
// of ABC's "balance" command. Maximal single-fanout conjunction trees are
// collected in the old graph and re-assembled pairing the shallowest
// operands first.
func (a *AIG) Balance() *AIG {
	refs := a.FanoutCounts()
	out := New(a.Name)
	remap := make([]Signal, len(a.nodes))
	for idx, in := range a.inputs {
		remap[in] = out.AddInput(a.names[idx])
	}
	live := a.LiveMask()

	// Collect the leaves of the conjunction tree rooted at old node i.
	var collect func(s Signal, root bool, leaves *[]Signal)
	collect = func(s Signal, root bool, leaves *[]Signal) {
		nd := &a.nodes[s.Node()]
		if nd.kind == kindAnd && !s.Neg() && (root || refs[s.Node()] == 1) {
			collect(nd.fanin[0], false, leaves)
			collect(nd.fanin[1], false, leaves)
			return
		}
		*leaves = append(*leaves, s)
	}

	for i := range a.nodes {
		nd := &a.nodes[i]
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		var oldLeaves []Signal
		collect(MakeSignal(i, false), true, &oldLeaves)
		// Map leaves into the new graph.
		newLeaves := make([]Signal, len(oldLeaves))
		for k, l := range oldLeaves {
			newLeaves[k] = remap[l.Node()].NotIf(l.Neg())
		}
		// Combine the two shallowest leaves repeatedly.
		for len(newLeaves) > 1 {
			sort.Slice(newLeaves, func(x, y int) bool {
				return out.Level(newLeaves[x]) < out.Level(newLeaves[y])
			})
			n := out.And(newLeaves[0], newLeaves[1])
			newLeaves = append([]Signal{n}, newLeaves[2:]...)
		}
		remap[i] = newLeaves[0]
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}

// synthExpr builds an expression tree in the AIG over the given leaf
// signals, pairing shallow operands first.
func synthExpr(out *AIG, e *sop.Expr, leaves []Signal) Signal {
	switch e.Kind {
	case sop.ExprConst:
		if e.Val {
			return Const1
		}
		return Const0
	case sop.ExprLit:
		return leaves[e.Var].NotIf(e.Neg)
	case sop.ExprAnd, sop.ExprOr:
		sigs := make([]Signal, len(e.Kids))
		for i, k := range e.Kids {
			s := synthExpr(out, k, leaves)
			if e.Kind == sop.ExprOr {
				s = s.Not()
			}
			sigs[i] = s
		}
		for len(sigs) > 1 {
			sort.Slice(sigs, func(x, y int) bool {
				return out.Level(sigs[x]) < out.Level(sigs[y])
			})
			sigs = append([]Signal{out.And(sigs[0], sigs[1])}, sigs[2:]...)
		}
		if e.Kind == sop.ExprOr {
			return sigs[0].Not()
		}
		return sigs[0]
	}
	panic("aig: bad expression kind")
}

// factorKey identifies a function of at most six variables: the arity
// and its single truth-table word. The arity is part of the key because
// one word is a different function at each arity (0x80 is AND3 over three
// variables but x0·x1·x2·x3' over four).
type factorKey struct {
	n    int
	word uint64
}

// factored is one sop.FactorTT result: the expression and whether it
// computes the complement.
type factored struct {
	e   *sop.Expr
	neg bool
}

// factorMemo caches sop.FactorTT per cut function for one pass. FactorTT
// is a pure function of the table and synthExpr only reads the tree, so a
// cached expression builds exactly the structure a fresh one would. Each
// factoring runs espresso on f and f', and cut functions repeat heavily:
// over the MCNC circuits, 99% of a resyn2 flow's calls ask for a function
// the same pass has already factored. Functions of more than six variables
// are factored directly.
type factorMemo map[factorKey]factored

// synth builds f over the leaf signals via minimized, factored SOP.
func (m factorMemo) synth(out *AIG, f tt.TT, leaves []Signal) Signal {
	var r factored
	if n := f.NumVars(); n <= 6 {
		k := factorKey{n, f.Word(0)}
		var ok bool
		if r, ok = m[k]; !ok {
			r.e, r.neg = sop.FactorTT(f)
			m[k] = r
		}
	} else {
		r.e, r.neg = sop.FactorTT(f)
	}
	return synthExpr(out, r.e, leaves).NotIf(r.neg)
}

// Rewrite performs DAG-aware cut rewriting with 4-input cuts, the analogue
// of ABC's "rewrite".
func (a *AIG) Rewrite() *AIG {
	return a.cutResynth(4, 6)
}

// Refactor performs cone refactoring, the analogue of ABC's "refactor".
// Cuts have up to 10 leaves, but only the two smallest cuts per node are
// kept, so the factored functions stay small: no function of more than 4
// variables reached factoring on any MCNC circuit or partitioned mesh
// window.
func (a *AIG) Refactor() *AIG {
	return a.cutResynth(10, 2)
}

// badSignal marks unset slots of the dense remap table (no valid signal:
// the node index exceeds any real graph).
const badSignal = ^Signal(0)

// cutResynth rebuilds the AIG, resynthesizing each node from the best of
// its k-feasible cuts via minimized factored SOP, factoring each distinct
// cut function once per pass (factorMemo). A candidate is accepted
// when it creates fewer nodes than the default reconstruction (exploiting
// sharing found by structural hashing), or the same number at lower level.
// Cuts come from the AIG's arena-backed cache; the remap is a dense pooled
// slice rather than a map.
func (a *AIG) cutResynth(k, maxCuts int) *AIG {
	cuts := a.CutSet(k, maxCuts)
	out := New(a.Name)
	out.strash.Reserve(len(a.nodes))
	remap := make([]Signal, len(a.nodes))
	for i := range remap {
		remap[i] = badSignal
	}
	remap[0] = Const0
	for idx, in := range a.inputs {
		remap[in] = out.AddInput(a.names[idx])
	}
	live := a.LiveMask()
	memo := factorMemo{}
	var leafBuf, bestSigs []Signal
	for i := range a.nodes {
		nd := &a.nodes[i]
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		x := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		y := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())

		cp := out.checkpoint()
		def := out.And(x, y)
		defAdded := len(out.nodes) - cp
		defLevel := out.Level(def)
		out.rollback(cp)

		var bestF tt.TT
		haveBest := false
		bestAdded, bestLevel := defAdded, defLevel
		for ci := 0; ci < cuts.NumCuts(i); ci++ {
			leaves := cuts.Leaves(i, ci)
			if len(leaves) < 2 {
				continue
			}
			leafBuf = leafBuf[:0]
			ok := true
			for _, l := range leaves {
				s := remap[l]
				if s == badSignal {
					ok = false
					break
				}
				leafBuf = append(leafBuf, s)
			}
			if !ok {
				continue
			}
			f := a.cutFunc(i, leaves)
			cp := out.checkpoint()
			s := memo.synth(out, f, leafBuf)
			added := len(out.nodes) - cp
			level := out.Level(s)
			out.rollback(cp)
			if added < bestAdded || (added == bestAdded && level < bestLevel) {
				bestF = f
				bestSigs = append(bestSigs[:0], leafBuf...)
				haveBest = true
				bestAdded, bestLevel = added, level
			}
		}
		if !haveBest {
			remap[i] = out.And(x, y)
		} else {
			remap[i] = memo.synth(out, bestF, bestSigs)
		}
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}
