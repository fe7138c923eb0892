package mig

// Functional (Boolean) resynthesis of small functions into majority logic.
// This extends the paper's purely algebraic Ω/Ψ optimization with the
// cut-rewriting style its follow-on work developed: small cut functions are
// re-synthesized from their truth tables and the cheaper structure wins.
//
// SynthesizeTT builds an MIG for a function of up to six variables over
// leaf signals:
//
//  1. constants and literals directly;
//  2. single majority/AND/OR/XOR shapes of literals by exhaustive matching
//     (all variable triples/pairs in all polarities);
//  3. top-decomposition f = M(x, g, h) when cofactor analysis finds literal
//     top candidates;
//  4. otherwise Shannon expansion through the majority form
//     f = M(M(x', f1, 1), M(x, f0, 1), 0) on the most binate variable.

import (
	"slices"

	"repro/internal/tt"
)

// SynthesizeTT builds f, a function of at most six variables, over the
// given leaf signals and returns the root. The synthesis runs on the
// function's single truth-table word (synth6.go).
func (m *MIG) SynthesizeTT(f tt.TT, leaves []Signal) Signal {
	return m.synthW(nil, f.Word(0), f.NumVars(), leaves)
}

// badSignal marks unset slots of dense remap tables. It is no valid signal:
// its node index exceeds any real graph.
const badSignal = ^Signal(0)

// RewritePass performs cut-based functional rewriting: each node's 4-input
// cut functions are re-synthesized from their truth tables and the variant
// creating the fewest new nodes (exploiting structural sharing) replaces
// the node. This is the Boolean extension of the algebraic Alg. 1.
//
// The default reconstruction and every cut's synthesis are costed by dry
// builds on the output graph; only the winner is built. The pass reads the
// MIG's cut cache and keeps all per-node state in dense pooled slices; the
// only allocations are the output graph itself.
func (m *MIG) RewritePass() *MIG {
	cuts := m.CutSet(4, 5)
	out := New(m.Name)
	out.nodes = slices.Grow(out.nodes, len(m.nodes))
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
	p := &out.dry
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())

		p.reset(len(out.nodes))
		def := out.dryMaj(p, a, b, c)
		defAdded, defLevel := len(p.keys), out.levelIn(p, def)

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
			p.reset(len(out.nodes))
			s := out.synthW(p, w, len(leafBuf), leafBuf)
			added, level := len(p.keys), out.levelIn(p, s)
			if added < bestAdded || (added == bestAdded && level < bestLevel) {
				bestW = w
				bestN = len(leafBuf)
				bestSigs = append(bestSigs[:0], leafBuf...)
				haveBest = true
				bestAdded, bestLevel = added, level
			}
		}
		if haveBest {
			remap[i] = out.synthW(nil, bestW, bestN, bestSigs)
		} else {
			remap[i] = out.Maj(a, b, c)
		}
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}
