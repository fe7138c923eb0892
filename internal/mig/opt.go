package mig

// Optimization algorithms from Section IV of the paper.
//
// Algorithm 1 (size):   eliminate (Ω.M L→R, Ω.D R→L) — reshape (Ω.A, Ψ.C,
// Ψ.R, Ψ.S) — eliminate, iterated over a user-defined effort.
//
// Algorithm 2 (depth):  push-up of critical variables (Ω.M L→R, Ω.D L→R,
// Ω.A, Ψ.C) — reshape — push-up, iterated over the effort.
//
// Activity (§IV.C):     size optimization plus probability-aware relevance
// exchanges that prefer node constructions whose output probability is far
// from 0.5.
//
// All passes are implemented as topological rebuilds: each node's
// candidate constructions are costed by a dry build that only looks keys up
// in the structural hash (probeCand), and the best one is built for real.
// A probe stops as soon as its candidate adds more nodes than the pass
// could accept, and a candidate whose outcome is already known is not
// probed: Ψ.R when no exchange can beat the default, push-up at a node
// without a strictly deepest majority fanin.
// Every pass preserves functional equivalence (the rules are the paper's
// sound Ω/Ψ transformations) — this is verified extensively in the tests.

import "math"

// candidate describes a probed local construction by its shape and
// parameter signals; buildCand materializes it, for real or inside a dry
// probe. Probing a candidate therefore allocates nothing.
type candidate struct {
	shape  candShape
	sig    [5]Signal
	window int
	added  int
	level  int
}

// candShape enumerates the local construction templates of the Ω/Ψ passes.
type candShape uint8

const (
	// shapeMaj: M(s0, s1, s2) — the default reconstruction.
	shapeMaj candShape = iota
	// shapeNested: M(s0, s1, M(s2, s3, s4)) — Ω.D R→L, Ω.A, Ψ.C.
	shapeNested
	// shapeDist: M(M(s0,s1,s2), M(s0,s1,s3), s4) — Ω.D L→R.
	shapeDist
	// shapeRelevance: M(s0, s1, s2[s0/s1']) — Ψ.R with the replacement
	// cone bounded by window.
	shapeRelevance
)

// buildCand constructs the candidate and returns its signal: in the MIG
// when p is nil, otherwise inside the dry probe p.
func (m *MIG) buildCand(c *candidate, p *probe) Signal {
	switch c.shape {
	case shapeMaj:
		return m.maj(p, c.sig[0], c.sig[1], c.sig[2])
	case shapeNested:
		return m.maj(p, c.sig[0], c.sig[1], m.maj(p, c.sig[2], c.sig[3], c.sig[4]))
	case shapeDist:
		return m.maj(p, m.maj(p, c.sig[0], c.sig[1], c.sig[2]), m.maj(p, c.sig[0], c.sig[1], c.sig[3]), c.sig[4])
	case shapeRelevance:
		nz := m.replaceInCone(p, c.sig[2], c.sig[0], c.sig[1].Not(), c.window)
		return m.maj(p, c.sig[0], c.sig[1], nz)
	}
	panic("mig: unknown candidate shape")
}

// unbounded is the probe bound that never stops a build.
const unbounded = math.MaxInt

// probeCand fills in the candidate's cost fields — the nodes a build would
// add and the level of its result — without modifying the MIG, and returns
// the result's signal. The probe stops at the first virtual node past
// bound: the candidate would add more nodes than the caller can accept, so
// probeCand reports false and leaves the cost fields unset.
func (m *MIG) probeCand(c *candidate, bound int) (Signal, bool) {
	p := &m.dry
	p.reset(len(m.nodes))
	p.bound = bound
	s := m.buildCand(c, p)
	if p.over {
		return 0, false
	}
	c.added = len(p.keys)
	c.level = int(m.levelIn(p, s))
	return s, true
}

// probe is a dry build: the nodes a build would append stay virtual,
// numbered from base in creation order exactly as the build would number
// them, so every Ω.C sort sees the same signal values and a key built
// twice shares one node. A virtual node's fanins are its key. A build that
// would add more than bound virtual nodes stops there and sets over; every
// later dryMaj of that build returns at once.
type probe struct {
	base   int
	keys   [][3]Signal
	levels []int32
	bound  int
	over   bool
}

// reset empties the probe over a graph of n nodes, without a bound.
func (p *probe) reset(n int) {
	p.base = n
	p.truncate(0)
	p.bound, p.over = unbounded, false
}

// truncate keeps the first n virtual nodes and drops the rest.
func (p *probe) truncate(n int) {
	p.keys, p.levels = p.keys[:n], p.levels[:n]
}

// maj is Maj when p is nil and dryMaj inside p otherwise.
func (m *MIG) maj(p *probe, a, b, c Signal) Signal {
	if p == nil {
		return m.Maj(a, b, c)
	}
	return m.dryMaj(p, a, b, c)
}

// dryMaj is Maj inside the probe p, reading the MIG only. After majNorm,
// the key is searched among p's virtual nodes, then in the strash when
// every fanin is a real, used node; a miss becomes a virtual node at level
// max(fanin levels) + 1, unless it is one more than p's bound allows.
func (m *MIG) dryMaj(p *probe, a, b, c Signal) Signal {
	if p.over {
		return Const0
	}
	a, b, c, outNeg, ok := majNorm(a, b, c)
	if !ok {
		return a
	}
	key := [3]Signal{a, b, c}
	for i, k := range p.keys {
		if k == key {
			return MakeSignal(p.base+i, outNeg)
		}
	}
	if c.Node() < p.base && m.mayExist(a, b, c) {
		if idx := m.lookup(a, b, c); idx != 0 {
			return MakeSignal(int(idx), outNeg)
		}
	}
	if len(p.keys) == p.bound {
		p.over = true
		return Const0
	}
	p.keys = append(p.keys, key)
	p.levels = append(p.levels, max(m.levelIn(p, a), m.levelIn(p, b), m.levelIn(p, c))+1)
	return MakeSignal(p.base+len(p.keys)-1, outNeg)
}

// levelIn is the level of s, which may be a virtual node of p.
func (m *MIG) levelIn(p *probe, s Signal) int32 {
	if n := s.Node(); n >= p.base {
		return p.levels[n-p.base]
	}
	return m.nodes[s.Node()].level
}

// faninsIn returns the fanins of node n, which may be a virtual node of p;
// ok is false when n is not a majority node.
func (m *MIG) faninsIn(p *probe, n int) (f [3]Signal, ok bool) {
	if n >= p.base {
		return p.keys[n-p.base], true
	}
	return m.nodes[n].fanin, m.nodes[n].kind == kindMaj
}

// better reports whether a beats b under (primary, secondary) ordering.
func betterSize(a, b *candidate) bool {
	if a.added != b.added {
		return a.added < b.added
	}
	return a.level < b.level
}

func betterDepth(a, b *candidate) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	return a.added < b.added
}

// EliminatePass applies the node-elimination rules over the whole MIG: the
// trivial majority rules Ω.M (built into strashing), distributivity right-
// to-left Ω.D R→L, and window-bounded relevance Ψ.R when it strictly
// reduces the number of nodes. Returns a new MIG.
func (m *MIG) EliminatePass(window int) *MIG {
	return m.eliminate(window, -1)
}

// EliminatePassBudget is EliminatePass restricted by a global depth budget:
// a candidate is accepted only when the rebuilt node's level stays within
// the slack the budget leaves at that node, so the pass can undo Ω.D
// duplication off the critical path without lengthening it (slack-aware
// size recovery after depth optimization).
func (m *MIG) EliminatePassBudget(window, depthBudget int) *MIG {
	return m.eliminate(window, depthBudget)
}

func (m *MIG) eliminate(window, depthBudget int) *MIG {
	refs := m.FanoutCounts()
	// required[i] is the maximum level node i may take without pushing any
	// output past the budget (-1 disables the gate).
	var required []int
	if depthBudget >= 0 {
		rev := m.reverseLevels()
		required = make([]int, len(m.nodes))
		for i := range required {
			if rev[i] < 0 {
				required[i] = depthBudget
			} else {
				required[i] = depthBudget - rev[i]
			}
		}
	}
	return m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		out.probeCand(&def, unbounded)
		best := def
		within := func(cand *candidate) bool {
			return required == nil || cand.level <= required[oldIdx]
		}

		// Ω.D R→L: M(M(x,y,u), M(x,y,v), z) = M(x,y,M(u,v,z)) when the two
		// inner nodes share two fanins and are not referenced elsewhere.
		oldF := m.nodes[oldIdx].fanin
		tryDist := func(p, q, r Signal, oldP, oldQ Signal) {
			px, py, pz, okP := out.majView(p)
			qx, qy, qz, okQ := out.majView(q)
			if !okP || !okQ {
				return
			}
			if refs[oldP.Node()] > 1 || refs[oldQ.Node()] > 1 {
				return
			}
			pf := [3]Signal{px, py, pz}
			qf := [3]Signal{qx, qy, qz}
			// Find a common pair of signals.
			for i := 0; i < 3; i++ {
				for j := i + 1; j < 3; j++ {
					x, y := pf[i], pf[j]
					u := pf[3-i-j]
					// Does q contain both x and y?
					v, found := Signal(0), false
					if qf[0] == x && qf[1] == y {
						v, found = qf[2], true
					} else if qf[0] == x && qf[2] == y {
						v, found = qf[1], true
					} else if qf[1] == x && qf[2] == y {
						v, found = qf[0], true
					} else if qf[0] == y && qf[1] == x {
						v, found = qf[2], true
					} else if qf[0] == y && qf[2] == x {
						v, found = qf[1], true
					} else if qf[1] == y && qf[2] == x {
						v, found = qf[0], true
					}
					if !found {
						continue
					}
					// M(x, y, M(u, v, r)).
					cand := candidate{shape: shapeNested, sig: [5]Signal{x, y, u, v, r}}
					out.probeCand(&cand, unbounded)
					if within(&cand) && betterSize(&cand, &best) {
						best = cand
					}
				}
			}
		}
		tryDist(a, b, c, oldF[0], oldF[1])
		tryDist(a, c, b, oldF[0], oldF[2])
		tryDist(b, c, a, oldF[1], oldF[2])

		// Ψ.R: M(x, y, z) = M(x, y, z_{x/y'}) — accept only when strictly
		// fewer nodes are created than the default construction, so only
		// when the default adds a node, and probe no further than that.
		if window > 0 && def.added > 0 {
			reach := out.relevanceReach(a, b, c, window)
			for i, perm := range relevanceCandidates(a, b, c) {
				if !reach[i] {
					continue
				}
				cand := candidate{shape: shapeRelevance, sig: [5]Signal{perm[0], perm[1], perm[2]}, window: window}
				if _, ok := out.probeCand(&cand, def.added-1); ok && within(&cand) && betterSize(&cand, &best) {
					best = cand
				}
			}
		}
		return out.buildCand(&best, nil)
	})
}

// PushUpPass applies the depth-oriented rules along critical paths:
// associativity Ω.A, complementary associativity Ψ.C (both depth-neutral in
// size), and distributivity left-to-right Ω.D (one extra node, applied on
// the critical path only). Returns a new MIG.
func (m *MIG) PushUpPass() *MIG {
	crit := m.criticalMask()
	return m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		// Only a strictly deepest majority fanin g is worth pushing into:
		// pushing a variable out of a non-critical child cannot reduce the
		// level. At most one fanin is strictly deepest, and without one no
		// rule applies, so the default is built unprobed.
		fan := [3]Signal{a, b, c}
		gi := -1
		for i, g := range fan {
			if out.IsMaj(g) && out.Level(g) > out.Level(fan[(i+1)%3]) && out.Level(g) > out.Level(fan[(i+2)%3]) {
				gi = i
				break
			}
		}
		if gi < 0 {
			return out.Maj(a, b, c)
		}
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		out.probeCand(&def, unbounded)
		best := def

		gx, gy, gz, _ := out.majView(fan[gi])
		gf := [3]Signal{gx, gy, gz}
		// The two remaining top-level fanins.
		t1, t2 := fan[(gi+1)%3], fan[(gi+2)%3]

		// Ω.A: M(x, u, M(y, u, z)) = M(z, u, M(y, u, x)).
		for _, u := range []Signal{t1, t2} {
			x := t1
			if u == t1 {
				x = t2
			}
			for k := 0; k < 3; k++ {
				if gf[k] != u {
					continue
				}
				// u is shared; the other two grandchildren may be
				// swapped with x.
				for zi := 0; zi < 3; zi++ {
					if zi == k {
						continue
					}
					z := gf[zi]
					y := gf[3-k-zi]
					// M(z, u, M(y, u, x)).
					cand := candidate{shape: shapeNested, sig: [5]Signal{z, u, y, u, x}}
					out.probeCand(&cand, unbounded)
					if betterDepth(&cand, &best) {
						best = cand
					}
				}
			}
		}

		// Ψ.C: M(x, u, M(y, u', z)) = M(x, u, M(y, x, z)).
		for _, u := range []Signal{t1, t2} {
			x := t1
			if u == t1 {
				x = t2
			}
			for k := 0; k < 3; k++ {
				if gf[k] != u.Not() {
					continue
				}
				y := gf[(k+1)%3]
				z := gf[(k+2)%3]
				// M(x, u, M(y, x, z)).
				cand := candidate{shape: shapeNested, sig: [5]Signal{x, u, y, x, z}}
				out.probeCand(&cand, unbounded)
				if betterDepth(&cand, &best) {
					best = cand
				}
				// Composed Ψ.C → Ω.A: after the exchange the top node is
				// M(x, u, M(y, x, z)) with x shared, so associativity can
				// swap u with either remaining grandchild. This pair of
				// moves is what shortens g = x(y+uv) in the paper's
				// Fig. 2(c) even though Ψ.C alone is depth-neutral.
				for _, w := range [][2]Signal{{y, z}, {z, y}} {
					// M(w0, x, M(w1, x, u)).
					cand2 := candidate{shape: shapeNested, sig: [5]Signal{w[0], x, w[1], x, u}}
					out.probeCand(&cand2, unbounded)
					if betterDepth(&cand2, &best) {
						best = cand2
					}
				}
			}
		}

		// Ω.D L→R: M(x, y, M(u, v, z)) = M(M(x,y,u), M(x,y,v), z),
		// pushing the critical grandchild z one level up at the price of
		// one node. Restricted to the critical path.
		if crit[oldIdx] {
			// Choose the deepest grandchild as z.
			zi := 0
			for k := 1; k < 3; k++ {
				if out.Level(gf[k]) > out.Level(gf[zi]) {
					zi = k
				}
			}
			z := gf[zi]
			u := gf[(zi+1)%3]
			v := gf[(zi+2)%3]
			cand := candidate{shape: shapeDist, sig: [5]Signal{t1, t2, u, v, z}}
			out.probeCand(&cand, unbounded)
			if cand.level < def.level && betterDepth(&cand, &best) {
				best = cand
			}
		}
		return out.buildCand(&best, nil)
	})
}

// ReshapePass jiggles the structure to escape local minima: relevance
// exchanges Ψ.R that do not create nodes (thereby increasing sharing), and,
// when aggressive, substitution Ψ.S on small output cones.
func (m *MIG) ReshapePass(window int, aggressive bool) *MIG {
	res := m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		out.probeCand(&def, unbounded)
		best := def
		reach := out.relevanceReach(a, b, c, window)
		for i, perm := range relevanceCandidates(a, b, c) {
			if !reach[i] {
				continue
			}
			cand := candidate{shape: shapeRelevance, sig: [5]Signal{perm[0], perm[1], perm[2]}, window: window}
			// Accept sharing-increasing or level-reducing exchanges.
			if _, ok := out.probeCand(&cand, def.added); ok && (cand.added < def.added || cand.level < def.level) && betterSize(&cand, &best) {
				best = cand
			}
		}
		return out.buildCand(&best, nil)
	})
	if !aggressive {
		return res
	}
	// Ψ.S on small critical output cones: substitute a pair of cone inputs
	// and let the next elimination exploit the new structure.
	return res.substitutionReshape(64)
}

// substitutionReshape applies Ψ.S to output cones with at most maxCone
// majority nodes, substituting the two most frequent cone leaves.
func (m *MIG) substitutionReshape(maxCone int) *MIG {
	out := m.Clone()
	for oi, o := range out.Outputs {
		nodes, leaves := out.coneOf(o.Sig, maxCone)
		if nodes == 0 || len(leaves) < 2 {
			continue
		}
		v, u := leaves[0], leaves[1]
		ns := out.SubstituteVar(o.Sig, MakeSignal(v, false), MakeSignal(u, false), 64)
		out.Outputs[oi].Sig = ns
	}
	return out.Cleanup()
}

// coneOf returns the number of majority nodes in the cone of s (up to limit;
// 0 is returned when the cone exceeds the limit) and the cone's leaf nodes
// (PIs) ordered by number of occurrences.
func (m *MIG) coneOf(s Signal, limit int) (int, []int) {
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
	// Order by occurrence count (descending), then node id for determinism.
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
	return count, leaves
}

// ActivityPass performs relevance exchanges that lower the switching
// activity of the constructed nodes without increasing size, under the
// given input probability profile (nil = uniform).
//
// Cost model: for each candidate construction, the activity of the local
// structure (the created nodes, the root, and the root's majority fanins)
// is compared; a candidate may create one extra node when the fanin cone it
// replaces is single-fanout in the old graph (the old cone dies, so the
// live size is unchanged). Candidates are costed by dry builds.
func (m *MIG) ActivityPass(inputProbs []float64) *MIG {
	refs := m.FanoutCounts()
	act := activity{in: inputProbs}
	return m.rebuildWith(func(out *MIG, oldIdx int, a, b, c Signal) Signal {
		def := candidate{shape: shapeMaj, sig: [5]Signal{a, b, c}}
		s, _ := out.probeCand(&def, unbounded)
		best, bestAct := def, act.local(out, &out.dry, len(out.nodes), s)
		// The cone position of each relevance permutation, as an old fanin
		// index (relevanceCandidates order: cone is c, c, b, b, a, a).
		coneOldIdx := [6]int{2, 2, 1, 1, 0, 0}
		oldF := m.nodes[oldIdx].fanin
		reach := out.relevanceReach(a, b, c, 3)
		for pi, perm := range relevanceCandidates(a, b, c) {
			if !reach[pi] {
				continue
			}
			// One extra created node is allowed when the replaced cone is
			// single-fanout in the old graph (it dies after the exchange).
			allow := 0
			oldCone := oldF[coneOldIdx[pi]]
			if m.nodes[oldCone.Node()].kind == kindMaj && refs[oldCone.Node()] == 1 {
				allow = 1
			}
			cand := candidate{shape: shapeRelevance, sig: [5]Signal{perm[0], perm[1], perm[2]}, window: 3}
			if cs, ok := out.probeCand(&cand, def.added+allow); ok {
				if ca := act.local(out, &out.dry, len(out.nodes), cs); ca < bestAct {
					best, bestAct = cand, ca
				}
			}
		}
		return out.buildCand(&best, nil)
	})
}

// activity holds the output probabilities of the graph ActivityPass
// builds, one per node, under the input profile in (nil = uniform).
type activity struct {
	in, probs []float64
	inputs    int // primary inputs seen so far
}

// majProb is the probability of a majority node with fanins f being 1.
func (a *activity) majProb(f [3]Signal) float64 {
	var v [3]float64
	for j, s := range f {
		if v[j] = a.probs[s.Node()]; s.Neg() {
			v[j] = 1 - v[j]
		}
	}
	x, y, z := v[0], v[1], v[2]
	return x*y + x*z + y*z - 2*x*y*z
}

// local sums 2p(1-p) over the nodes numbered from `from` on (the nodes a
// candidate creates), the root, and the root's majority fanins, each node
// once. It first computes the probabilities of g's nodes added since the
// last call, then those of p's virtual nodes from their keys, in creation
// order; the virtual ones are dropped again before returning.
func (a *activity) local(g *MIG, p *probe, from int, root Signal) float64 {
	for i := len(a.probs); i < len(g.nodes); i++ {
		switch nd := &g.nodes[i]; nd.kind {
		case kindConst:
			a.probs = append(a.probs, 0)
		case kindPI:
			q := 0.5
			if a.inputs < len(a.in) {
				q = a.in[a.inputs]
			}
			a.inputs++
			a.probs = append(a.probs, q)
		case kindMaj:
			a.probs = append(a.probs, a.majProb(nd.fanin))
		}
	}
	for _, k := range p.keys {
		a.probs = append(a.probs, a.majProb(k))
	}
	end := p.base + len(p.keys)
	seen := g.scr.begin(end)
	total := 0.0
	add := func(idx int) {
		if _, isMaj := g.faninsIn(p, idx); seen.seen(idx) || !isMaj {
			return
		}
		seen.mark(idx)
		q := a.probs[idx]
		total += 2 * q * (1 - q)
	}
	for i := from; i < end; i++ {
		add(i)
	}
	add(root.Node())
	if f, ok := g.faninsIn(p, root.Node()); ok {
		for _, x := range f {
			add(x.Node())
		}
	}
	a.probs = a.probs[:p.base]
	return total
}
