package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fullAdder builds a 1-bit full adder and returns the network.
func fullAdder() *Network {
	n := New("fa")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("cin")
	sum := n.AddGate(Xor, a, b, c)
	carry := n.AddGate(Maj, a, b, c)
	n.AddOutput("sum", sum)
	n.AddOutput("cout", carry)
	return n
}

func TestFullAdderTruth(t *testing.T) {
	n := fullAdder()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	tts, err := n.CollapseTT()
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		a, b, c := m&1, (m>>1)&1, (m>>2)&1
		wantSum := (a + b + c) & 1
		wantCout := (a + b + c) >> 1
		if got := tts[0].Bit(m); got != (wantSum == 1) {
			t.Errorf("sum(%d%d%d) = %v", a, b, c, got)
		}
		if got := tts[1].Bit(m); got != (wantCout == 1) {
			t.Errorf("cout(%d%d%d) = %v", a, b, c, got)
		}
	}
}

func TestEvalWordMatchesCollapse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := randomNetwork(r, 6, 40)
	tts, err := n.CollapseTT()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate with input words equal to the tt variable patterns.
	inputs := make([]uint64, 6)
	for i := range inputs {
		inputs[i] = varPattern(i)
	}
	words := n.OutputWords(inputs)
	for i := range words {
		if words[i] != tts[i].Words()[0] {
			t.Errorf("output %d: sim %x vs tt %x", i, words[i], tts[i].Words()[0])
		}
	}
}

func varPattern(i int) uint64 {
	masks := []uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	return masks[i]
}

// randomNetwork builds a random network over ni inputs with ng gates.
func randomNetwork(r *rand.Rand, ni, ng int) *Network {
	n := New("rand")
	var sigs []Signal
	for i := 0; i < ni; i++ {
		sigs = append(sigs, n.AddInput("i"+string(rune('a'+i))))
	}
	ops := []Op{And, Or, Xor, Nand, Nor, Xnor, Maj, Mux, Not}
	for g := 0; g < ng; g++ {
		op := ops[r.Intn(len(ops))]
		pick := func() Signal {
			s := sigs[r.Intn(len(sigs))]
			if r.Intn(2) == 0 {
				s = s.Not()
			}
			return s
		}
		var s Signal
		switch op {
		case Not:
			s = n.AddGate(Not, pick())
		case Maj, Mux:
			s = n.AddGate(op, pick(), pick(), pick())
		default:
			s = n.AddGate(op, pick(), pick())
		}
		sigs = append(sigs, s)
	}
	for o := 0; o < 4; o++ {
		n.AddOutput("o"+string(rune('0'+o)), sigs[len(sigs)-1-o])
	}
	return n
}

func TestValidateCatchesBadFanin(t *testing.T) {
	n := New("bad")
	a := n.AddInput("a")
	n.AddGate(Not, a)
	// Corrupt a fanin to point forward.
	n.Nodes[2].Fanins[0] = MakeSignal(5, false)
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted forward fanin")
	}
}

func TestValidateArity(t *testing.T) {
	n := New("bad2")
	a := n.AddInput("a")
	n.AddGate(Not, a)
	n.Nodes[2].Op = Maj // now has wrong arity
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted Maj with 1 fanin")
	}
}

func TestCleanRemovesDeadNodes(t *testing.T) {
	n := New("dead")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddGate(And, a, b) // dead
	keep := n.AddGate(Or, a, b)
	n.AddOutput("o", keep)
	c := n.Clean()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Errorf("cleaned gates = %d, want 1", c.NumGates())
	}
	if c.NumInputs() != 2 {
		t.Errorf("inputs dropped by Clean: %d", c.NumInputs())
	}
}

func TestCleanPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := randomNetwork(r, 5, 30)
		c := n.Clean()
		t1, err := n.CollapseTT()
		if err != nil {
			t.Fatal(err)
		}
		t2, err := c.CollapseTT()
		if err != nil {
			t.Fatal(err)
		}
		for i := range t1 {
			if !t1[i].Equal(t2[i]) {
				t.Fatalf("trial %d output %d changed by Clean", trial, i)
			}
		}
	}
}

func TestCleanBypassesBuffers(t *testing.T) {
	n := New("buf")
	a := n.AddInput("a")
	b1 := n.AddGate(Buf, a)
	b2 := n.AddGate(Not, b1)
	n.AddOutput("o", b2)
	c := n.Clean()
	for _, nd := range c.Nodes {
		if nd.Op == Buf || nd.Op == Not {
			t.Errorf("Clean left a %v node", nd.Op)
		}
	}
	t1, _ := n.CollapseTT()
	t2, _ := c.CollapseTT()
	if !t1[0].Equal(t2[0]) {
		t.Error("function changed")
	}
}

func TestDepthAndLevels(t *testing.T) {
	n := New("depth")
	a := n.AddInput("a")
	b := n.AddInput("b")
	x := n.AddGate(And, a, b)
	y := n.AddGate(Or, x, a)
	z := n.AddGate(Xor, y, x)
	n.AddOutput("o", z)
	if d := n.Depth(); d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	lv := n.Levels()
	if lv[x.Node()] != 1 || lv[y.Node()] != 2 || lv[z.Node()] != 3 {
		t.Errorf("levels wrong: %v", lv)
	}
}

func TestNotTransparentForDepth(t *testing.T) {
	n := New("inv")
	a := n.AddInput("a")
	b := n.AddInput("b")
	x := n.AddGate(And, a, b)
	ix := n.AddGate(Not, x)
	y := n.AddGate(Or, ix, a)
	n.AddOutput("o", y)
	if d := n.Depth(); d != 2 {
		t.Errorf("depth = %d, want 2 (inverters transparent)", d)
	}
}

func TestSignalOps(t *testing.T) {
	s := MakeSignal(7, true)
	if s.Node() != 7 || !s.Neg() {
		t.Error("MakeSignal broken")
	}
	if s.Not().Neg() {
		t.Error("Not broken")
	}
	if s.NotIf(false) != s || s.NotIf(true) != s.Not() {
		t.Error("NotIf broken")
	}
	if SigConst1 != SigConst0.Not() {
		t.Error("const signals inconsistent")
	}
}

func TestConstEval(t *testing.T) {
	n := New("c")
	a := n.AddInput("a")
	g := n.AddGate(And, a, SigConst1)
	n.AddOutput("o", g)
	n.AddOutput("z", SigConst0)
	n.AddOutput("one", SigConst1)
	out := n.OutputWords([]uint64{0xDEADBEEF})
	if out[0] != 0xDEADBEEF {
		t.Errorf("a&1 = %x", out[0])
	}
	if out[1] != 0 || out[2] != ^uint64(0) {
		t.Error("const outputs wrong")
	}
}

func TestOpCountsAndStats(t *testing.T) {
	n := fullAdder()
	c := n.OpCounts()
	if c[Input] != 3 || c[Xor] != 1 || c[Maj] != 1 || c[Const0] != 1 {
		t.Errorf("op counts wrong: %v", c)
	}
	if n.NumGates() != 2 {
		t.Errorf("NumGates = %d, want 2", n.NumGates())
	}
	if s := n.Stats(); s == "" {
		t.Error("empty stats")
	}
}

func TestQuickRandomNetworksValid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNetwork(r, 4+r.Intn(4), 10+r.Intn(50))
		if n.Validate() != nil {
			return false
		}
		c := n.Clean()
		if c.Validate() != nil {
			return false
		}
		// Clean never increases gate count.
		return c.NumGates() <= n.NumGates()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCollapseTooBig(t *testing.T) {
	n := New("big")
	for i := 0; i < 20; i++ {
		n.AddInput("x")
	}
	if _, err := n.CollapseTT(); err == nil {
		t.Error("CollapseTT accepted 20 inputs")
	}
}

// TestFaninsIsolated checks that gates built into one fanin arena, and
// their clones, do not share storage one can grow into: appending to a
// node's fanins must leave its neighbour's alone.
func TestFaninsIsolated(t *testing.T) {
	n := New("iso")
	a, b := n.AddInput("a"), n.AddInput("b")
	g := n.AddGate(And, a, b)
	h := n.AddGate(Or, a.Not(), b)
	for _, net := range []*Network{n, n.Clone()} {
		nd := &net.Nodes[g.Node()]
		nd.Fanins = append(nd.Fanins, b.Not())
		if got := net.Nodes[h.Node()].Fanins; len(got) != 2 || got[0] != a.Not() || got[1] != b {
			t.Fatalf("appending to node %d changed node %d's fanins to %v", g.Node(), h.Node(), got)
		}
	}
	if got := n.Nodes[g.Node()].Fanins; len(got) != 3 {
		t.Fatalf("append lost: %v", got)
	}
}
