package mig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tt"
)

func randTT(r *rand.Rand, n int) tt.TT {
	words := 1
	if n > 6 {
		words = 1 << uint(n-6)
	}
	w := make([]uint64, words)
	for i := range w {
		w[i] = r.Uint64()
	}
	return tt.FromWords(n, w)
}

func TestSynthesizeTTCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 20; trial++ {
			f := randTT(r, n)
			m := New("s")
			leaves := make([]Signal, n)
			for i := range leaves {
				leaves[i] = m.AddInput("x")
			}
			s := m.SynthesizeTT(f, leaves)
			m.AddOutput("f", s)
			got := collapse(t, m)[0]
			if !got.Equal(f) {
				t.Fatalf("n=%d trial=%d: synthesized %s want %s", n, trial, got.Hex(), f.Hex())
			}
		}
	}
}

func TestSynthesizeTTSpecialShapes(t *testing.T) {
	m := New("s")
	leaves := []Signal{m.AddInput("a"), m.AddInput("b"), m.AddInput("c")}
	n := 3

	cases := []struct {
		name string
		f    tt.TT
		max  int // maximum majority nodes allowed
	}{
		{"const0", tt.Const(n, false), 0},
		{"literal", tt.Var(n, 1), 0},
		{"not-literal", tt.Var(n, 2).Not(), 0},
		{"and", tt.Var(n, 0).And(tt.Var(n, 1)), 1},
		{"or-neg", tt.Var(n, 0).Or(tt.Var(n, 2).Not()), 1},
		{"maj", tt.Maj3(tt.Var(n, 0), tt.Var(n, 1), tt.Var(n, 2)), 1},
		{"minority", tt.Maj3(tt.Var(n, 0), tt.Var(n, 1), tt.Var(n, 2)).Not(), 1},
		{"maj-mixed", tt.Maj3(tt.Var(n, 0).Not(), tt.Var(n, 1), tt.Var(n, 2).Not()), 1},
		{"xor2", tt.Var(n, 0).Xor(tt.Var(n, 1)), 3},
		{"xor3", tt.Var(n, 0).Xor(tt.Var(n, 1)).Xor(tt.Var(n, 2)), 7},
	}
	for _, c := range cases {
		before := len(m.nodes)
		s := m.SynthesizeTT(c.f, leaves)
		added := len(m.nodes) - before
		if added > c.max {
			t.Errorf("%s: %d nodes, want <= %d", c.name, added, c.max)
		}
		// Verify function.
		mm := m.Clone()
		mm.Outputs = []Output{{Name: "f", Sig: s}}
		got := collapse(t, mm)[0]
		if !got.Equal(c.f) {
			t.Errorf("%s: wrong function", c.name)
		}
	}
}

func TestEnumerateCutsBasic(t *testing.T) {
	m := New("c")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	w := m.AddInput("w")
	g1 := m.Maj(x, y, Const0)
	g2 := m.Maj(g1, z, w)
	m.AddOutput("o", g2)
	cuts := m.CutSet(4, 6)
	// g2 must have the cut {x, y, z, w}.
	found := false
	for j := 0; j < cuts.NumCuts(g2.Node()); j++ {
		leaves := cuts.Leaves(g2.Node(), j)
		if len(leaves) == 4 {
			found = true
			f := m.cutFuncW(g2.Node(), leaves)
			want := tt.Maj3(tt.Var(4, 0).And(tt.Var(4, 1)), tt.Var(4, 2), tt.Var(4, 3))
			if f != want.Word(0) {
				t.Error("cut function wrong")
			}
		}
	}
	if !found {
		t.Error("4-leaf cut missing")
	}
}

func TestCutFunctionWithConst(t *testing.T) {
	// Constant fanins must not appear as cut leaves.
	m := New("c")
	x := m.AddInput("x")
	y := m.AddInput("y")
	g := m.Maj(x, y, Const1) // or
	m.AddOutput("o", g)
	cuts := m.CutSet(4, 6)
	for j := 0; j < cuts.NumCuts(g.Node()); j++ {
		leaves := cuts.Leaves(g.Node(), j)
		for _, l := range leaves {
			if l == 0 {
				t.Error("constant node used as cut leaf")
			}
		}
		// The constant fanin outside the cut still counts: {x, y} is OR.
		if len(leaves) == 2 && m.cutFuncW(g.Node(), leaves) != tt.Var(2, 0).Or(tt.Var(2, 1)).Word(0) {
			t.Error("cut function over a constant fanin wrong")
		}
	}
}

func TestRewritePassEquivalenceAndGain(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		m := randomMIG(r, 5+r.Intn(3), 30+r.Intn(50))
		rw := m.RewritePass().Cleanup()
		checkEquiv(t, m, rw, "RewritePass")
		if rw.Size() > m.Size() {
			t.Errorf("trial %d: rewrite grew size %d -> %d", trial, m.Size(), rw.Size())
		}
	}
}

func TestQuickSynthesizeTT(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(w uint64) bool {
		f := tt.FromWords(5, []uint64{w})
		m := New("q")
		leaves := make([]Signal, 5)
		for i := range leaves {
			leaves[i] = m.AddInput("x")
		}
		s := m.SynthesizeTT(f, leaves)
		m.AddOutput("f", s)
		words := 1
		ins := make([]uint64, 5)
		masks := []uint64{
			0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
			0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000,
		}
		copy(ins, masks)
		_ = words
		got := m.OutputWords(ins)[0]
		return tt.FromWords(5, []uint64{got}).Equal(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMajorityAxiomsOnGraph(t *testing.T) {
	// Graph-level Ω axioms: build both sides of each axiom in an MIG over
	// random leaf assignments and check the signals agree functionally.
	cfg := &quick.Config{MaxCount: 100}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New("ax")
		var sigs []Signal
		for i := 0; i < 4; i++ {
			sigs = append(sigs, m.AddInput("x"))
		}
		pick := func() Signal {
			s := sigs[r.Intn(len(sigs))]
			if r.Intn(2) == 0 {
				s = s.Not()
			}
			return s
		}
		x, y, z, u, v := pick(), pick(), pick(), pick(), pick()
		// Ω.A
		lhs := m.Maj(x, u, m.Maj(y, u, z))
		rhs := m.Maj(z, u, m.Maj(y, u, x))
		// Ω.D
		dl := m.Maj(x, y, m.Maj(u, v, z))
		dr := m.Maj(m.Maj(x, y, u), m.Maj(x, y, v), z)
		// Ψ.C
		cl := m.Maj(x, u, m.Maj(y, u.Not(), z))
		cr := m.Maj(x, u, m.Maj(y, x, z))
		m.AddOutput("la", lhs)
		m.AddOutput("ra", rhs)
		m.AddOutput("dl", dl)
		m.AddOutput("dr", dr)
		m.AddOutput("cl", cl)
		m.AddOutput("cr", cr)
		masks := []uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00}
		out := m.OutputWords(masks)
		mask := uint64(0xFFFF) // 2^4 minterms
		return out[0]&mask == out[1]&mask && out[2]&mask == out[3]&mask && out[4]&mask == out[5]&mask
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
