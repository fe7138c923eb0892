package mig

// Functional (Boolean) resynthesis of small functions into majority logic.
// This extends the paper's purely algebraic Ω/Ψ optimization with the
// cut-rewriting style its follow-on work developed: small cut functions are
// re-synthesized from their truth tables and the cheaper structure wins.
//
// SynthesizeTT builds an MIG for an arbitrary function over leaf signals:
//
//  1. constants and literals directly;
//  2. single majority/AND/OR/XOR shapes of literals by exhaustive matching
//     (all variable triples/pairs in all polarities);
//  3. top-decomposition f = M(x, g, h) when cofactor analysis finds literal
//     top candidates;
//  4. otherwise Shannon expansion through the majority form
//     f = M(M(x', f1, 1), M(x, f0, 1), 0) on the most binate variable.

import (
	"repro/internal/tt"
)

// ttMemo memoizes synthesized sub-functions of one SynthesizeTT call. For
// functions of up to six variables (every cut-rewriting call) the key is
// the truth table's single word, so the memo is a reusable map[uint64]
// cleared per call instead of a fresh map of hex-string keys; larger
// functions fall back to the string form.
type ttMemo struct {
	small map[uint64]Signal
	big   map[string]Signal
}

// reset prepares the memo for a function over n variables.
func (t *ttMemo) reset(n int) {
	if n <= 6 {
		if t.small == nil {
			t.small = make(map[uint64]Signal, 32)
		} else {
			clear(t.small)
		}
		return
	}
	if t.big == nil {
		t.big = make(map[string]Signal, 32)
	} else {
		clear(t.big)
	}
}

// get looks f up, in either polarity. Only the >6-variable recursion uses
// it (synthRec); the word path reads the small map directly (synth6.go).
func (t *ttMemo) get(f tt.TT) (Signal, bool) {
	if s, ok := t.big[f.Hex()]; ok {
		return s, true
	}
	if s, ok := t.big[f.Not().Hex()]; ok {
		return s.Not(), true
	}
	return 0, false
}

// put memoizes the synthesized signal for f.
func (t *ttMemo) put(f tt.TT, s Signal) { t.big[f.Hex()] = s }

// SynthesizeTT builds f over the given leaf signals and returns the root.
// Functions of up to six variables take the allocation-free word path
// (synth6.go); larger functions use the generic truth-table recursion.
func (m *MIG) SynthesizeTT(f tt.TT, leaves []Signal) Signal {
	if f.NumVars() != len(leaves) {
		panic("mig: SynthesizeTT leaf count mismatch")
	}
	if f.NumVars() <= 6 {
		return m.synthW(f.Word(0), f.NumVars(), leaves)
	}
	m.synthMemo.reset(f.NumVars())
	return m.synthRec(f, leaves, &m.synthMemo)
}

func (m *MIG) synthRec(f tt.TT, leaves []Signal, memo *ttMemo) Signal {
	if f.IsConst0() {
		return Const0
	}
	if f.IsConst1() {
		return Const1
	}
	if s, ok := memo.get(f); ok {
		return s
	}
	n := f.NumVars()

	// Literal?
	support := f.Support()
	if len(support) == 1 {
		v := support[0]
		s := leaves[v]
		if f.Equal(tt.Var(n, v)) {
			memo.put(f, s)
			return s
		}
		memo.put(f, s.Not())
		return s.Not()
	}

	// Two-literal AND/OR/XOR shapes.
	if len(support) == 2 {
		a, b := support[0], support[1]
		va, vb := tt.Var(n, a), tt.Var(n, b)
		for _, pa := range []bool{false, true} {
			for _, pb := range []bool{false, true} {
				la, lb := va, vb
				if pa {
					la = la.Not()
				}
				if pb {
					lb = lb.Not()
				}
				switch {
				case f.Equal(la.And(lb)):
					s := m.And(leaves[a].NotIf(pa), leaves[b].NotIf(pb))
					memo.put(f, s)
					return s
				case f.Equal(la.Or(lb)):
					s := m.Or(leaves[a].NotIf(pa), leaves[b].NotIf(pb))
					memo.put(f, s)
					return s
				}
			}
		}
		if f.Equal(va.Xor(vb)) {
			s := m.Xor(leaves[a], leaves[b])
			memo.put(f, s)
			return s
		}
		if f.Equal(va.Xor(vb).Not()) {
			s := m.Xor(leaves[a], leaves[b]).Not()
			memo.put(f, s)
			return s
		}
	}

	// Three-literal majority shapes (any polarities, incl. output).
	if len(support) == 3 {
		a, b, c := support[0], support[1], support[2]
		base := tt.Maj3(tt.Var(n, a), tt.Var(n, b), tt.Var(n, c))
		for variant := 0; variant < 16; variant++ {
			g := base
			if variant&1 != 0 {
				g = g.FlipVar(a)
			}
			if variant&2 != 0 {
				g = g.FlipVar(b)
			}
			if variant&4 != 0 {
				g = g.FlipVar(c)
			}
			if variant&8 != 0 {
				g = g.Not()
			}
			if f.Equal(g) {
				s := m.Maj(
					leaves[a].NotIf(variant&1 != 0),
					leaves[b].NotIf(variant&2 != 0),
					leaves[c].NotIf(variant&4 != 0),
				).NotIf(variant&8 != 0)
				memo.put(f, s)
				return s
			}
		}
		// Three-input parity.
		par := tt.Var(n, a).Xor(tt.Var(n, b)).Xor(tt.Var(n, c))
		if f.Equal(par) || f.Equal(par.Not()) {
			s := m.Xor(m.Xor(leaves[a], leaves[b]), leaves[c]).NotIf(f.Equal(par.Not()))
			memo.put(f, s)
			return s
		}
	}

	// Top majority decomposition with a literal arm: f = M(x^p, g, h) where
	// the cofactors agree appropriately. M(x, g, h) has cofactors
	// f_x=1 = g|h (or), f_x=0 = g&h (and) when g, h independent of x... in
	// general: f1 = M(1,g,h) = g+h restricted, f0 = g·h. We use the simpler
	// sufficient test: if f0 implies f1 (always true), try g = f1, h = f0:
	// M(x, f1, f0) = x·(f1+f0) + f1·f0 = x·f1 + f0 (since f0 ⊆ f1). That
	// equals ite(x, f1, f0) exactly when f0 ⊆ f1.
	{
		best := -1
		for _, v := range support {
			f0, f1 := f.Cofactor0(v), f.Cofactor1(v)
			if f0.AndNot(f1).IsConst0() || f1.AndNot(f0).IsConst0() {
				best = v
				break
			}
		}
		if best >= 0 {
			v := best
			f0, f1 := f.Cofactor0(v), f.Cofactor1(v)
			var s Signal
			if f0.AndNot(f1).IsConst0() {
				// f0 ⊆ f1: f = M(x, f1, f0).
				g := m.synthRec(f1, leaves, memo)
				h := m.synthRec(f0, leaves, memo)
				s = m.Maj(leaves[v], g, h)
			} else {
				// f1 ⊆ f0: f = M(x', f0, f1).
				g := m.synthRec(f0, leaves, memo)
				h := m.synthRec(f1, leaves, memo)
				s = m.Maj(leaves[v].Not(), g, h)
			}
			memo.put(f, s)
			return s
		}
	}

	// General Shannon step on the most binate variable (the one whose
	// cofactors differ the most, to shrink both sides).
	bestV, bestScore := support[0], -1
	for _, v := range support {
		d := f.Cofactor0(v).Xor(f.Cofactor1(v)).CountOnes()
		if d > bestScore {
			bestV, bestScore = v, d
		}
	}
	f0 := f.Cofactor0(bestV)
	f1 := f.Cofactor1(bestV)
	g1 := m.synthRec(f1, leaves, memo)
	g0 := m.synthRec(f0, leaves, memo)
	x := leaves[bestV]
	// f = (x' + f1)(x + f0) = M(M(x', f1, 1), M(x, f0, 1), 0).
	s := m.And(m.Or(x.Not(), g1), m.Or(x, g0))
	memo.put(f, s)
	return s
}

// badSignal marks unset slots of dense remap tables. It is no valid signal:
// its node index exceeds any real graph.
const badSignal = ^Signal(0)

// RewritePass performs cut-based functional rewriting: each node's 4-input
// cut functions are re-synthesized from their truth tables and the variant
// creating the fewest new nodes (exploiting structural sharing) replaces
// the node. This is the Boolean extension of the algebraic Alg. 1.
//
// The pass reads the MIG's cut cache and keeps all per-node state in dense
// pooled slices; the only allocations are the output graph itself.
func (m *MIG) RewritePass() *MIG {
	cuts := m.CutSet(4, 5)
	out := New(m.Name)
	out.strash.Reserve(len(m.nodes))
	rp := takeSignals(len(m.nodes), badSignal)
	remap := *rp
	defer releaseSignals(rp)
	remap[0] = Const0
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	var leafBuf, bestSigs []Signal
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())

		cp := out.checkpoint()
		def := out.Maj(a, b, c)
		defAdded := len(out.nodes) - cp
		defLevel := out.Level(def)
		out.rollback(cp)

		var bestW uint64
		bestN := 0
		haveBest := false
		bestAdded, bestLevel := defAdded, defLevel
		for ci := 0; ci < cuts.NumCuts(i); ci++ {
			leaves := cuts.Leaves(i, ci)
			if len(leaves) < 2 {
				continue
			}
			leafBuf = leafBuf[:0]
			okAll := true
			for _, l := range leaves {
				s := remap[l]
				if s == badSignal {
					okAll = false
					break
				}
				leafBuf = append(leafBuf, s)
			}
			if !okAll {
				continue
			}
			w := m.cutFuncW(i, leaves)
			cp := out.checkpoint()
			s := out.synthW(w, len(leafBuf), leafBuf)
			added := len(out.nodes) - cp
			level := out.Level(s)
			out.rollback(cp)
			if added < bestAdded || (added == bestAdded && level < bestLevel) {
				bestW = w
				bestN = len(leafBuf)
				bestSigs = append(bestSigs[:0], leafBuf...)
				haveBest = true
				bestAdded, bestLevel = added, level
			}
		}
		if haveBest {
			remap[i] = out.synthW(bestW, bestN, bestSigs)
		} else {
			remap[i] = out.Maj(a, b, c)
		}
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}
