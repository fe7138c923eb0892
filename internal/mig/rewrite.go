package mig

// Rewrite infrastructure. Optimization passes rebuild the MIG node by node
// in topological order, applying local transformation rules from the Ω and Ψ
// systems while the new graph is constructed. A pass picks the cheapest of
// several functionally equivalent local structures, costing each by a dry
// build that only looks keys up (probe, opt.go), and builds only the
// winner, so no pass ever takes a node back.

import "slices"

// rebuildFunc constructs (in out) the replacement for the old node oldIdx
// whose fanins have been mapped to a, b, c.
type rebuildFunc func(out *MIG, oldIdx int, a, b, c Signal) Signal

// rebuildWith reconstructs the MIG through f. Dead nodes are skipped, so
// every rebuild is also a cleanup. The remap and liveness scratch comes from
// the shared slabs, so a rebuild allocates only the output graph itself.
func (m *MIG) rebuildWith(f rebuildFunc) *MIG {
	out := New(m.Name)
	out.nodes = slices.Grow(out.nodes, len(m.nodes))
	rp := takeSignals(len(m.nodes), 0)
	remap := *rp
	defer releaseSignals(rp)
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = f(out, i, a, b, c)
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out
}

// reverseLevels returns, per node, the longest path (in majority levels)
// from the node to any primary output it feeds. Dead nodes get -1.
func (m *MIG) reverseLevels() []int {
	rev := make([]int, len(m.nodes))
	for i := range rev {
		rev[i] = -1
	}
	for _, o := range m.Outputs {
		rev[o.Sig.Node()] = 0
	}
	for i := len(m.nodes) - 1; i >= 0; i-- {
		if rev[i] < 0 || m.nodes[i].kind != kindMaj {
			continue
		}
		for _, f := range m.nodes[i].fanin {
			if r := rev[i] + 1; r > rev[f.Node()] {
				rev[f.Node()] = r
			}
		}
	}
	return rev
}

// criticalMask marks nodes on a longest input-to-output path.
func (m *MIG) criticalMask() []bool {
	depth := m.Depth()
	rev := m.reverseLevels()
	crit := make([]bool, len(m.nodes))
	for i := range m.nodes {
		if rev[i] >= 0 && int(m.nodes[i].level)+rev[i] >= depth {
			crit[i] = true
		}
	}
	return crit
}

// replaceInCone rebuilds the cone of root with occurrences of the signal
// from replaced by to, descending at most depth majority levels. The from
// signal is matched in both polarities (from' is replaced by to'). Partial
// replacement is sound for both Ψ.R and Ψ.S: on the inputs where the rules
// make the replacement valid, from and to carry the same value, so replacing
// any subset of occurrences preserves the function (see the tests).
//
// The rebuilt cone lives in the same MIG (self-rebuild), relying on
// structural hashing for sharing. An epoch-stamped dense memo (the MIG's
// scratch) keeps the traversal linear in the cone size without allocating;
// memoization across different residual depths can only cause fewer
// occurrences to be replaced, which remains sound.
//
// A non-nil p builds the replacement inside that dry probe (see probeCand);
// once the probe passes its bound, the walk stops.
func (m *MIG) replaceInCone(p *probe, root, from, to Signal, depth int) Signal {
	return m.replaceRec(p, root, from, to, depth, m.scr.begin(len(m.nodes)))
}

func (m *MIG) replaceRec(p *probe, root, from, to Signal, depth int, memo *scratch) Signal {
	if root == from {
		return to
	}
	if root == from.Not() {
		return to.Not()
	}
	if depth == 0 || p != nil && p.over {
		return root
	}
	// Replacement commutes with complementation (Ω.I), so memoize on the
	// positive polarity only.
	pos := MakeSignal(root.Node(), false)
	if r, ok := memo.get(root.Node()); ok {
		return r.NotIf(root.Neg())
	}
	a, b, c, ok := m.majView(pos)
	if !ok {
		return root
	}
	na := m.replaceRec(p, a, from, to, depth-1, memo)
	nb := m.replaceRec(p, b, from, to, depth-1, memo)
	nc := m.replaceRec(p, c, from, to, depth-1, memo)
	var res Signal
	if na == a && nb == b && nc == c {
		res = pos
	} else {
		res = m.maj(p, na, nb, nc)
	}
	memo.put(root.Node(), res)
	return res.NotIf(root.Neg())
}

// relevanceReach reports, for each relevanceCandidates permutation
// (x, y, z) of (a, b, c), whether a walk of z's cone within depth majority
// levels reaches x's node, so that Ψ.R has an occurrence to replace. The
// walk is depth-first, expands each node once and stops at the first visit
// of its target, so it can miss a target that a first visit saw at too
// small a residual depth. One walk per cone answers both of its
// permutations exactly as a walk per target would: each target's walk
// treats the other target as an ordinary node, and so does this one. A
// cone holds only nodes of lower level than its root, so a target at the
// root's level or above is answered without walking and is not waited for.
func (m *MIG) relevanceReach(a, b, c Signal, depth int) (reach [6]bool) {
	for i, r := range [3][3]Signal{{c, a, b}, {b, a, c}, {a, b, c}} {
		var w coneWalk
		for j, t := range r[1:] {
			w.t[j] = t.Node()
			if w.t[j] != r[0].Node() && m.Level(t) >= m.Level(r[0]) {
				w.t[j], w.found[j] = -1, true
			}
		}
		if !w.found[0] || !w.found[1] {
			w.seen = m.scr.begin(len(m.nodes))
			m.walkCone(&w, r[0].Node(), depth)
		}
		reach[2*i], reach[2*i+1] = w.found[0] && w.t[0] >= 0, w.found[1] && w.t[1] >= 0
	}
	return reach
}

// coneWalk is the state of one relevanceReach walk.
type coneWalk struct {
	t     [2]int
	found [2]bool
	seen  *scratch
}

// walkCone visits node n with d levels left and reports whether both
// targets have been found, which ends the walk.
func (m *MIG) walkCone(w *coneWalk, n, d int) bool {
	w.found[0] = w.found[0] || n == w.t[0]
	w.found[1] = w.found[1] || n == w.t[1]
	if w.found[0] && w.found[1] {
		return true
	}
	if d == 0 || w.seen.seen(n) {
		return false
	}
	w.seen.mark(n)
	nd := &m.nodes[n]
	if nd.kind != kindMaj {
		return false
	}
	return m.walkCone(w, nd.fanin[0].Node(), d-1) || m.walkCone(w, nd.fanin[1].Node(), d-1) || m.walkCone(w, nd.fanin[2].Node(), d-1)
}

// relevanceCandidates lists the Ψ.R exchanges at a node M(x, y, z): in
// M(x, y, z), z is relevant only when x = y', so x may be replaced by y'
// (and y by x') inside z's cone. Each candidate is (keepA, keepB, coneRoot)
// with replacement from=keepA, to=keepB.Not() applied inside coneRoot.
func relevanceCandidates(x, y, z Signal) [6][3]Signal {
	return [6][3]Signal{
		{x, y, z},
		{y, x, z},
		{x, z, y},
		{z, x, y},
		{y, z, x},
		{z, y, x},
	}
}

// SubstituteVar applies the substitution rule Ψ.S to signal root:
//
//	k = M(v, M(v', k_{v/u}, u), M(v', k_{v/u'}, u'))
//
// replacing variable v by u (and u') in the cone of root, bounded by depth.
// The result is functionally equal to root for any choice of u and v.
func (m *MIG) SubstituteVar(root, v, u Signal, depth int) Signal {
	kU := m.replaceInCone(nil, root, v, u, depth)
	kUn := m.replaceInCone(nil, root, v, u.Not(), depth)
	left := m.Maj(v.Not(), kU, u)
	right := m.Maj(v.Not(), kUn, u.Not())
	return m.Maj(v, left, right)
}
