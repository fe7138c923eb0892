package aig

import (
	"cmp"
	"slices"

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

// rollback removes nodes created after the checkpoint, unlinking each AND
// node from its strash chain from the top down (each then heads its chain;
// see the MIG twin in internal/mig/rewrite.go). Only a pass's fresh output
// graph is rolled back, and it never has a cut cache.
func (a *AIG) rollback(cp int) {
	for i := len(a.nodes) - 1; i >= cp; i-- {
		if nd := &a.nodes[i]; nd.kind == kindAnd {
			a.nodes[nd.fanin[1].Node()].head = nd.next
		}
	}
	a.nodes = a.nodes[:cp]
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
	var leaves []Signal
	var collect func(s Signal, root bool)
	collect = func(s Signal, root bool) {
		nd := &a.nodes[s.Node()]
		if nd.kind == kindAnd && !s.Neg() && (root || refs[s.Node()] == 1) {
			collect(nd.fanin[0], false)
			collect(nd.fanin[1], false)
			return
		}
		leaves = append(leaves, s)
	}

	for i := range a.nodes {
		nd := &a.nodes[i]
		if !live[i] || nd.kind != kindAnd {
			continue
		}
		leaves = leaves[:0]
		collect(MakeSignal(i, false), true)
		// Map leaves into the new graph.
		for k, l := range leaves {
			leaves[k] = remap[l.Node()].NotIf(l.Neg())
		}
		remap[i] = out.pairShallowest(leaves)
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}

// pairShallowest ANDs sigs into one signal, each step sorting the operands
// by level and replacing the two shallowest with their AND at the front.
// It reorders and overwrites sigs. The sort is not stable, and the pinned
// outputs depend on how it orders operands of equal level: it must stay
// the pattern-defeating quicksort that slices.SortFunc and sort.Slice
// share.
func (a *AIG) pairShallowest(sigs []Signal) Signal {
	for len(sigs) > 1 {
		slices.SortFunc(sigs, func(x, y Signal) int { return cmp.Compare(a.Level(x), a.Level(y)) })
		n := a.And(sigs[0], sigs[1])
		sigs = sigs[1:]
		sigs[0] = n
	}
	return sigs[0]
}

// synthExpr builds an expression tree in the AIG over the given leaf
// signals, pairing shallow operands first. Each And/Or node's operands
// take the top of *stack while they are paired.
func synthExpr(out *AIG, e *sop.Expr, leaves []Signal, stack *[]Signal) Signal {
	switch e.Kind {
	case sop.ExprConst:
		if e.Val {
			return Const1
		}
		return Const0
	case sop.ExprLit:
		return leaves[e.Var].NotIf(e.Neg)
	case sop.ExprAnd, sop.ExprOr:
		base := len(*stack)
		for _, k := range e.Kids {
			s := synthExpr(out, k, leaves, stack)
			*stack = append(*stack, s.NotIf(e.Kind == sop.ExprOr))
		}
		s := out.pairShallowest((*stack)[base:])
		*stack = (*stack)[:base]
		return s.NotIf(e.Kind == sop.ExprOr)
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
// cached expression builds exactly the structure a fresh one would. Cut
// functions repeat heavily: over the MCNC circuits, 99% of a resyn2 flow's
// calls ask for a function the same pass has already factored. A miss
// runs espresso on f and f' in the memo's word scratch (fs), reused by
// every miss of the pass, and allocates only the expression it keeps:
// about 7–10 µs and two allocations for a 4-variable function on a 2-core
// container (sop's BenchmarkFactorTT). Functions of more than six
// variables are factored directly. stack holds synthExpr's operands.
type factorMemo struct {
	m     map[factorKey]factored
	fs    sop.Factorer
	stack []Signal
}

// synth builds f over the leaf signals via minimized, factored SOP.
func (m *factorMemo) synth(out *AIG, f tt.TT, leaves []Signal) Signal {
	var r factored
	if n := f.NumVars(); n <= 6 {
		k := factorKey{n, f.Word(0)}
		var ok bool
		if r, ok = m.m[k]; !ok {
			r.e, r.neg = m.fs.FactorTT(f)
			if m.m == nil {
				m.m = map[factorKey]factored{}
			}
			m.m[k] = r
		}
	} else {
		r.e, r.neg = m.fs.FactorTT(f)
	}
	return synthExpr(out, r.e, leaves, &m.stack).NotIf(r.neg)
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
// cut function once per pass (factorMemo, whose word scratch every miss
// of the pass reuses). A candidate is accepted when it creates fewer
// nodes than the default reconstruction (exploiting sharing found by
// structural hashing), or the same number at lower level. Each candidate
// is built for real, then rolled back; its And/Or operands are paired on
// the memo's stack. Cuts come from the AIG's arena-backed cache; the
// remap is a dense pooled slice rather than a map.
func (a *AIG) cutResynth(k, maxCuts int) *AIG {
	cuts := a.CutSet(k, maxCuts)
	out := New(a.Name)
	out.nodes = slices.Grow(out.nodes, len(a.nodes))
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
			f := a.CutFunction(i, leaves)
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
