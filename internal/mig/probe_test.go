package mig

import (
	"math/rand"
	"testing"
)

// trialCost is the reference cost of a candidate: build it into the MIG,
// read the cost, and roll the build back.
func trialCost(m *MIG, c *candidate) (s Signal, added, level int) {
	cp := m.checkpoint()
	s = m.buildCand(c, nil)
	added, level = len(m.nodes)-cp, m.Level(s)
	m.rollback(cp)
	return s, added, level
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

// A dry probe must cost every candidate exactly as a trial build does —
// same added nodes, same level, same result signal — and must leave the
// MIG, its strash links and its cut cache untouched.
func TestProbeMatchesTrialBuild(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	var created [4]int // candidates per shape whose build adds nodes
	for trial := 0; trial < 60; trial++ {
		m := randomMIG(r, 3+r.Intn(5), 10+r.Intn(80))
		if m.Size() == 0 {
			continue
		}
		cuts := m.CutSet(4, 5)
		for k := 0; k < 200; k++ {
			shape := candShape(k % 4)
			c := randomCandidate(r, m, shape)
			nodes, snap := len(m.nodes), links(m)

			dry := c
			m.probeCand(&dry)
			sameLinks(t, m, snap, "after probeCand")
			if m.cutCache != cuts || cuts.NumNodes() != nodes {
				t.Fatalf("trial %d: probeCand changed the cut cache", trial)
			}
			var p probe
			p.base = len(m.nodes)
			ds := m.buildCand(&c, &p)

			ts, added, level := trialCost(m, &c)
			if dry.added != added || dry.level != level || ds != ts {
				t.Fatalf("trial %d: %+v: dry probe gives added %d, level %d, signal %d; trial build %d, %d, %d",
					trial, c, dry.added, dry.level, ds, added, level, ts)
			}
			if added > 0 {
				created[shape]++
			}
		}
		strashConsistent(t, m)
	}
	for shape, n := range created {
		if n == 0 {
			t.Errorf("shape %d: no candidate created a node; the test lost its coverage", shape)
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
			m.probeCand(&c)
		}
		if got := testing.AllocsPerRun(100, func() { m.probeCand(&c) }); got != 0 {
			t.Errorf("shape %d: warm probeCand allocates %.1f per run, want 0", shape, got)
		}
	}
}
