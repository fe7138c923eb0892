package mig

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cut"
)

// trialBuild is the reference build of a candidate: build it for real
// into a clone of m.
func trialBuild(m *MIG, build func(g *MIG, p *probe) Signal) (*MIG, Signal) {
	cl := m.Clone()
	return cl, build(cl, nil)
}

// randomCandidate draws a candidate of the given shape over m's signals in
// both polarities, biased towards the cases a dry build must get exactly
// right: constants, repeated and complementary operands, keys that hit the
// strash, shapeDist with s2 == s3, an inner key equal to an outer
// operand's node, and relevance cones that do contain the replaced node.
func randomCandidate(r *rand.Rand, m *MIG, shape candShape) candidate {
	var sig [5]Signal
	for i := range sig {
		switch k := r.Intn(8); {
		case k == 0:
			sig[i] = Const0.NotIf(r.Intn(2) == 0)
		case k <= 2 && i > 0:
			sig[i] = sig[r.Intn(i)].NotIf(r.Intn(2) == 0) // repeated or complementary
		default:
			sig[i] = MakeSignal(r.Intn(len(m.nodes)), r.Intn(2) == 0)
		}
	}
	var majs []int
	for i := range m.nodes {
		if m.nodes[i].kind == kindMaj {
			majs = append(majs, i)
		}
	}
	// f is an existing node's key in a random order and polarity, so a
	// build over it strash-hits n (in some polarity).
	n := majs[r.Intn(len(majs))]
	f := m.nodes[n].fanin
	r.Shuffle(3, func(i, j int) { f[i], f[j] = f[j], f[i] })
	if r.Intn(2) == 0 {
		f = [3]Signal{f[0].Not(), f[1].Not(), f[2].Not()}
	}
	c := candidate{shape: shape}
	switch shape {
	case shapeMaj, shapeDist:
		if r.Intn(3) == 0 {
			copy(sig[:3], f[:])
		}
		if shape == shapeDist && r.Intn(3) == 0 {
			sig[3] = sig[2]
		}
	case shapeNested:
		if r.Intn(3) == 0 {
			// The inner key hits n, so Ω.M may collapse the outer node.
			copy(sig[2:], f[:])
			sig[r.Intn(2)] = MakeSignal(n, r.Intn(2) == 0)
		}
	case shapeRelevance:
		// Replace a node of z's cone, found by a random descent.
		z := MakeSignal(n, r.Intn(2) == 0)
		x := z
		for d := r.Intn(4); d > 0 && m.nodes[x.Node()].kind == kindMaj; d-- {
			x = m.nodes[x.Node()].fanin[r.Intn(3)]
		}
		sig[0], sig[2] = x.NotIf(r.Intn(2) == 0), z
		if r.Intn(4) == 0 {
			sig[0] = MakeSignal(r.Intn(len(m.nodes)), r.Intn(2) == 0)
		}
		c.window = 1 + r.Intn(4)
	}
	c.sig = sig
	return c
}

// randomSynth draws a synthesized candidate as the window engine and
// cut-rewrite probe it: a cut of a random majority node i, its cut
// function or a random one, and leaf signals that are mostly the cut
// leaves themselves. npn picks the database implementation (at most four
// leaves) instead of synthW.
func randomSynth(r *rand.Rand, m *MIG, cuts *cut.Cache, majs []int) (i int, leaves []int32, build func(*MIG, *probe) Signal, npn bool) {
	for {
		i = majs[r.Intn(len(majs))]
		if leaves = cuts.Leaves(i, r.Intn(cuts.NumCuts(i))); len(leaves) >= 2 {
			break
		}
	}
	n := len(leaves)
	w := m.cutFuncW(i, leaves)
	if r.Intn(3) == 0 {
		w = r.Uint64() & wordMask(n)
	}
	sigs := make([]Signal, n)
	for j, l := range leaves {
		sigs[j] = MakeSignal(int(l), false)
		if r.Intn(5) == 0 {
			sigs[j] = MakeSignal(r.Intn(len(m.nodes)), r.Intn(2) == 0)
		}
	}
	ch := windowChoice{nvars: int32(n), w: w, npn: n <= 4 && r.Intn(2) == 0}
	build = func(g *MIG, p *probe) Signal { return g.synthCut(p, ch, sigs) }
	return i, leaves, build, ch.npn
}

// A dry probe must cost every candidate exactly as a real build on a clone
// does — same added nodes, same level, same result signal — and must leave
// the MIG, its strash links and its cut cache untouched. That holds for
// the four Ω/Ψ shapes with ActivityPass's local activity, under a random
// bound (which must reject exactly the candidates that add more), and for
// synthesized candidates (synthW, synthNPN) with the freedBy credit of
// replacing the cut's root, probed past a prefix of earlier winners as
// the window engine probes them.
func TestProbeMatchesTrialBuild(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	var created, rejected [4]int      // candidates per shape whose build adds nodes, or passes the bound
	var synthAdded, synthFreed [2]int // synthW, synthNPN candidates that add or free nodes
	var fs freedScratch
	for trial := 0; trial < 60; trial++ {
		m := randomMIG(r, 3+r.Intn(5), 10+r.Intn(80))
		if m.Size() == 0 {
			continue
		}
		var majs []int
		for i := range m.nodes {
			if m.nodes[i].kind == kindMaj {
				majs = append(majs, i)
			}
		}
		var inputProbs []float64
		if trial%2 == 0 {
			for range m.NumInputs() {
				inputProbs = append(inputProbs, r.Float64())
			}
		}
		act := activity{in: inputProbs}
		cuts := m.CutSet(6, 8)
		for k := 0; k < 200; k++ {
			shape := candShape(k % 4)
			c := randomCandidate(r, m, shape)
			nodes, snap := len(m.nodes), links(m)

			dry := c
			m.probeCand(&dry, unbounded)
			// A bounded probe rejects exactly the candidates that add more
			// nodes than its bound and costs every other one in full.
			bounded, bound := c, r.Intn(4)
			_, ok := m.probeCand(&bounded, bound)
			sameLinks(t, m, snap, "after probeCand")
			if m.cutCache != cuts || cuts.NumNodes() != nodes {
				t.Fatalf("trial %d: probeCand changed the cut cache", trial)
			}
			if ok != (dry.added <= bound) || ok && (bounded.added != dry.added || bounded.level != dry.level) {
				t.Fatalf("trial %d: %+v: probe bounded by %d gives ok %v, added %d, level %d; unbounded added %d, level %d",
					trial, c, bound, ok, bounded.added, bounded.level, dry.added, dry.level)
			}
			if !ok {
				rejected[shape]++
			}
			var p probe
			p.reset(len(m.nodes))
			ds := m.buildCand(&c, &p)
			dAct := act.local(m, &p, p.base, ds)

			cl, ts := trialBuild(m, func(g *MIG, p *probe) Signal { return g.buildCand(&c, p) })
			added, level := len(cl.nodes)-nodes, cl.Level(ts)
			if dry.added != added || dry.level != level || ds != ts {
				t.Fatalf("trial %d: %+v: dry probe gives added %d, level %d, signal %d; trial build %d, %d, %d",
					trial, c, dry.added, dry.level, ds, added, level, ts)
			}
			ref := activity{in: inputProbs}
			if tAct := ref.local(cl, &probe{base: len(cl.nodes)}, nodes, ts); dAct != tAct {
				t.Fatalf("trial %d: %+v: dry local activity %v, trial build %v", trial, c, dAct, tAct)
			}
			if added > 0 {
				created[shape]++
			}
		}

		refs := m.FanoutCounts()
		want := append([]int(nil), refs...)
		for k := 0; k < 100; k++ {
			snap := links(m)
			// Half the candidates are probed past a prefix: an earlier
			// winner kept in the probe, built for real on the clone.
			var p probe
			p.reset(len(m.nodes))
			var prefix func(*MIG, *probe) Signal
			if k%2 == 1 {
				_, _, prefix, _ = randomSynth(r, m, cuts, majs)
				prefix(m, &p)
			}
			pre := len(p.keys)
			i, leaves, build, npn := randomSynth(r, m, cuts, majs)
			ds := build(m, &p)
			dAdded, dLevel := len(p.keys)-pre, m.levelIn(&p, ds)
			dFreed := m.freedBy(&p, i, ds, leaves, refs, &fs)
			sameLinks(t, m, snap, "after a synthesis probe")

			cl, ts := trialBuild(m, func(g *MIG, p *probe) Signal {
				if prefix != nil {
					prefix(g, p)
				}
				pre = len(g.nodes)
				return build(g, p)
			})
			added, level := len(cl.nodes)-pre, int32(cl.Level(ts))
			freed := cl.freedBy(&probe{base: len(cl.nodes)}, i, ts, leaves, refs, &fs)
			if dAdded != added || dLevel != level || ds != ts || dFreed != freed {
				t.Fatalf("trial %d: synthesis (npn %v) of node %d over %v: dry probe gives added %d, level %d, signal %d, freed %d; trial build %d, %d, %d, %d",
					trial, npn, i, leaves, dAdded, dLevel, ds, dFreed, added, level, ts, freed)
			}
			if !slices.Equal(refs, want) {
				t.Fatalf("trial %d: freedBy left the fanout counts changed", trial)
			}
			kind := 0
			if npn {
				kind = 1
			}
			if added > 0 {
				synthAdded[kind]++
			}
			if freed > 0 {
				synthFreed[kind]++
			}
		}
		strashConsistent(t, m)
	}
	for shape, n := range created {
		if n == 0 || rejected[shape] == 0 {
			t.Errorf("shape %d: %d candidates created a node, %d passed the bound; the test lost its coverage", shape, n, rejected[shape])
		}
	}
	for kind, name := range []string{"synthW", "synthNPN"} {
		if synthAdded[kind] == 0 || synthFreed[kind] == 0 {
			t.Errorf("%s: %d candidates added nodes, %d freed some; the test lost its coverage", name, synthAdded[kind], synthFreed[kind])
		}
	}
}

// A warm probe allocates nothing: the virtual-node buffers and the cone
// memo are reused across probes.
func TestProbeCandNoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m := randomMIG(r, 6, 80)
	for shape := shapeMaj; shape <= shapeRelevance; shape++ {
		// The first probe warms the buffers; the candidate must create
		// virtual nodes so the measured probes append to them.
		var c candidate
		for c.added == 0 {
			c = randomCandidate(r, m, shape)
			m.probeCand(&c, unbounded)
		}
		if got := testing.AllocsPerRun(100, func() { m.probeCand(&c, unbounded) }); got != 0 {
			t.Errorf("shape %d: warm probeCand allocates %.1f per run, want 0", shape, got)
		}
	}
}

// coneContains is the one-target walk that relevanceReach answers two at a
// time: depth-first, each node expanded once, stopping at the first visit
// of the target.
func coneContains(m *MIG, root, target Signal, depth int) bool {
	seen := map[int]bool{}
	var rec func(s Signal, d int) bool
	rec = func(s Signal, d int) bool {
		if s.Node() == target.Node() {
			return true
		}
		if d == 0 || seen[s.Node()] {
			return false
		}
		seen[s.Node()] = true
		a, b, c, ok := m.majView(s)
		if !ok {
			return false
		}
		return rec(a, d-1) || rec(b, d-1) || rec(c, d-1)
	}
	return rec(root, depth)
}

// Each of relevanceReach's answers must be the one-target walk's, on
// fanin triples with shared, equal and unrelated nodes, where the walk's
// first-visit pruning makes the answer depend on the visiting order.
func TestRelevanceReachMatchesOneTargetWalks(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	var yes, no int
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(r, 3+r.Intn(5), 10+r.Intn(120))
		pick := func() Signal {
			if r.Intn(4) == 0 {
				return Const0.NotIf(r.Intn(2) == 0)
			}
			return MakeSignal(r.Intn(len(m.nodes)), r.Intn(2) == 0)
		}
		for k := 0; k < 200; k++ {
			a, b, c := pick(), pick(), pick()
			if r.Intn(5) == 0 {
				// A cone node as a target.
				x := c
				for d := r.Intn(4); d > 0 && m.IsMaj(x); d-- {
					x = m.nodes[x.Node()].fanin[r.Intn(3)]
				}
				a = x
			}
			if r.Intn(8) == 0 {
				b = a.NotIf(r.Intn(2) == 0)
			}
			depth := r.Intn(6)
			reach := m.relevanceReach(a, b, c, depth)
			for i, perm := range relevanceCandidates(a, b, c) {
				want := coneContains(m, perm[2], perm[0], depth)
				if reach[i] != want {
					t.Fatalf("trial %d: cone %d, target %d, depth %d: got %v, one-target walk %v", trial, perm[2], perm[0], depth, reach[i], want)
				}
				if want {
					yes++
				} else {
					no++
				}
			}
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("%d reached, %d not; the test lost its coverage", yes, no)
	}
}

// The reverse-scan live masks (liveInto's and reverseLevels') must equal
// a depth-first walk from the outputs, on random MIGs with dead nodes.
func TestLiveMaskMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	dead := 0
	for trial := 0; trial < 50; trial++ {
		m := randomMIG(r, 2+r.Intn(6), r.Intn(150))
		m.Outputs = m.Outputs[:r.Intn(len(m.Outputs)+1)]
		want := make([]bool, len(m.nodes))
		var walk func(n int)
		walk = func(n int) {
			if want[n] {
				return
			}
			want[n] = true
			if m.nodes[n].kind == kindMaj {
				for _, f := range m.nodes[n].fanin {
					walk(f.Node())
				}
			}
		}
		for _, o := range m.Outputs {
			walk(o.Sig.Node())
		}
		if got := m.LiveMask(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: live mask %v, walk %v", trial, got, want)
		}
		rev, live := make([]int, len(m.nodes)), make([]bool, len(m.nodes))
		m.reverseLevels(rev, live)
		if !slices.Equal(live, want) {
			t.Fatalf("trial %d: reverseLevels' live mask %v, walk %v", trial, live, want)
		}
		for i, l := range want {
			if !l && m.nodes[i].kind == kindMaj {
				dead++
			}
		}
	}
	if dead == 0 {
		t.Fatal("no dead majority node; the test lost its coverage")
	}
}
