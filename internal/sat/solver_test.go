package sat

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// bruteForce decides satisfiability of a CNF over nv variables by
// enumeration and returns a model when satisfiable.
func bruteForce(nv int, cnf [][]Lit) (bool, uint32) {
	for m := uint32(0); m < 1<<nv; m++ {
		sat := true
		for _, cl := range cnf {
			ok := false
			for _, l := range cl {
				if (m>>uint(l.Var()))&1 == boolBit(!l.Sign()) {
					ok = true
					break
				}
			}
			if !ok {
				sat = false
				break
			}
		}
		if sat {
			return true, m
		}
	}
	return false, 0
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// solverFor loads a CNF into a fresh solver (nv variables created up
// front). It returns nil when clause loading already proved UNSAT.
func solverFor(nv int, cnf [][]Lit) *Solver {
	s := NewSolver()
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			return nil
		}
	}
	return s
}

// checkModel verifies the solver's model against the CNF.
func checkModel(t *testing.T, s *Solver, cnf [][]Lit) {
	t.Helper()
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			if s.ValueLit(l) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model violates clause %v", cl)
		}
	}
}

// checkConfined solves cnf on s with branching confined to subset, then
// again with the confinement lifted. A confined Unsat must be genuine, a
// confined Sat model must satisfy every clause over subset variables
// only, and the lifted verdict must match brute force (want). A nil s
// (clause loading already proved UNSAT) is skipped.
func checkConfined(t *testing.T, s *Solver, nv int, cnf [][]Lit, subset []Var, want bool) {
	t.Helper()
	if s == nil {
		return
	}
	in := make([]bool, nv)
	for _, v := range subset {
		in[v] = true
	}
	s.Confine(subset)
	switch s.Solve() {
	case Unknown:
		t.Fatal("confined solve: Unknown without a conflict budget")
	case Unsat:
		if want {
			t.Fatalf("confined solve refuted a satisfiable instance (subset %v)", subset)
		}
	case Sat:
	clauses:
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				if !in[l.Var()] {
					continue clauses
				}
				sat = sat || s.ValueLit(l)
			}
			if !sat {
				t.Fatalf("confined model violates clause %v over confined variables %v", cl, subset)
			}
		}
	}
	s.Unconfine()
	got := s.Solve()
	if (got == Sat) != want {
		t.Fatalf("after Unconfine: solver says %v, brute force says sat=%v", got, want)
	}
	if got == Sat {
		checkModel(t, s, cnf)
	}
}

// randomCNF generates a random k-CNF instance.
func randomCNF(r *rand.Rand, nv, nc int) [][]Lit {
	cnf := make([][]Lit, nc)
	for i := range cnf {
		k := 1 + r.Intn(4)
		cl := make([]Lit, k)
		for j := range cl {
			cl[j] = MkLit(Var(r.Intn(nv)), r.Intn(2) == 1)
		}
		cnf[i] = cl
	}
	return cnf
}

// TestSolverVsBruteForce is the core correctness suite: on hundreds of
// random CNFs of up to 12 variables the CDCL verdict must match exhaustive
// enumeration, and every Sat verdict must come with a genuine model.
func TestSolverVsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(0xC0FFEE))
	sat, unsat := 0, 0
	for trial := 0; trial < 400; trial++ {
		nv := 1 + r.Intn(12)
		// Around the 4.3x sat/unsat threshold plus sparser and denser mixes.
		nc := 1 + r.Intn(6*nv)
		cnf := randomCNF(r, nv, nc)
		want, _ := bruteForce(nv, cnf)
		s := solverFor(nv, cnf)
		if s == nil {
			if want {
				t.Fatalf("trial %d: AddClause proved UNSAT but instance is satisfiable", trial)
			}
			unsat++
			continue
		}
		got := s.Solve()
		if got == Unknown {
			t.Fatalf("trial %d: Unknown without a conflict budget", trial)
		}
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver says %v, brute force says sat=%v (nv=%d nc=%d)", trial, got, want, nv, nc)
		}
		if got == Sat {
			checkModel(t, s, cnf)
			sat++
		} else {
			unsat++
		}
		// The same instance with branching confined to a random subset
		// (its own seed, so the instance stream above is unchanged).
		rc := rand.New(rand.NewSource(int64(trial)))
		var subset []Var
		for v := 0; v < nv; v++ {
			if rc.Intn(2) == 0 {
				subset = append(subset, Var(v))
			}
		}
		checkConfined(t, solverFor(nv, cnf), nv, cnf, subset, want)
	}
	// The mix must genuinely exercise both outcomes.
	if sat < 50 || unsat < 50 {
		t.Fatalf("degenerate test mix: %d sat / %d unsat", sat, unsat)
	}
}

// TestSolverIncrementalVsBruteForce grows one instance clause by clause,
// re-solving after every addition: the incremental interface must stay
// consistent with a from-scratch enumeration at every step.
func TestSolverIncrementalVsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nv := 4 + r.Intn(6)
		cnf := randomCNF(r, nv, 4*nv)
		s := NewSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		dead := false
		for i, cl := range cnf {
			if !dead && !s.AddClause(cl...) {
				dead = true
			}
			want, _ := bruteForce(nv, cnf[:i+1])
			got := !dead && s.Solve() == Sat
			if got != want {
				t.Fatalf("trial %d after %d clauses: solver=%v brute=%v", trial, i+1, got, want)
			}
		}
	}
}

// pigeonhole builds PHP(holes+1 pigeons, holes): unsatisfiable by the
// pigeonhole principle, a classic resolution-hard family that exercises
// clause learning, restarts and DB reduction.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]Lit, pigeons)
	for p := range vars {
		vars[p] = make([]Lit, holes)
		for h := range vars[p] {
			vars[p][h] = MkLit(s.NewVar(), false)
		}
	}
	for p := 0; p < pigeons; p++ {
		s.AddClause(vars[p]...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(vars[p1][h].Not(), vars[p2][h].Not())
			}
		}
	}
}

func TestPigeonhole(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 7, 6)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(7,6) = %v, want unsat", got)
	}
	s2 := NewSolver()
	pigeonhole(s2, 6, 6)
	if got := s2.Solve(); got != Sat {
		t.Fatalf("PHP(6,6) = %v, want sat", got)
	}
}

// TestAssumptions checks incremental solving under assumptions: the same
// solver instance must answer differing assumption sets correctly, without
// the assumptions leaking into the clause set.
func TestAssumptions(t *testing.T) {
	s := NewSolver()
	a := MkLit(s.NewVar(), false)
	b := MkLit(s.NewVar(), false)
	c := MkLit(s.NewVar(), false)
	s.AddClause(a, b)
	s.AddClause(a.Not(), c)
	s.AddClause(b.Not(), c)

	if got := s.Solve(c.Not()); got != Unsat {
		t.Fatalf("assume ~c: %v, want unsat (a|b forces c)", got)
	}
	// The failed assumption must not poison the solver.
	if got := s.Solve(c); got != Sat {
		t.Fatalf("assume c: %v, want sat", got)
	}
	if got := s.Solve(a, b.Not()); got != Sat {
		t.Fatalf("assume a,~b: %v, want sat", got)
	}
	if !s.ValueLit(a) || s.ValueLit(b) || !s.ValueLit(c) {
		t.Fatalf("model under assumptions wrong: a=%v b=%v c=%v", s.ValueLit(a), s.ValueLit(b), s.ValueLit(c))
	}
	// A non-Sat verdict drops the model: every variable reads false.
	if got := s.Solve(c.Not()); got != Unsat || s.ValueLit(a) || s.ValueLit(c) {
		t.Fatalf("assume ~c again: %v with a=%v c=%v, want unsat with no model", got, s.ValueLit(a), s.ValueLit(c))
	}
	if got := s.Solve(); got != Sat || !s.ValueLit(c) {
		t.Fatalf("no assumptions: %v with c=%v, want sat with c", got, s.ValueLit(c))
	}
	// Permanently commit ~c: now unsatisfiable for real, and the last
	// model is gone whether AddClause or Solve finds the conflict.
	s.AddClause(c.Not())
	if got := s.Solve(); got != Unsat || s.ValueLit(c) {
		t.Fatalf("after adding ~c: %v with c=%v, want unsat with no model", got, s.ValueLit(c))
	}
}

// TestConflictBudget: a hard instance under a tiny budget must report
// Unknown, and the same solver must finish the job when the budget is
// lifted.
func TestConflictBudget(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 9, 8)
	s.MaxConflicts = 5
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budget 5: %v, want unknown", got)
	}
	s.MaxConflicts = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("unbounded: %v, want unsat", got)
	}
}

func TestTrivialCases(t *testing.T) {
	s := NewSolver()
	v := s.NewVar()
	l := MkLit(v, false)
	if !s.AddClause(l, l.Not()) {
		t.Fatal("tautology rejected")
	}
	if !s.AddClause(l) {
		t.Fatal("unit rejected")
	}
	if s.Solve() != Sat || !s.Value(v) {
		t.Fatal("unit not respected")
	}
	if s.AddClause(l.Not()) {
		t.Fatal("contradiction accepted")
	}
	if s.Solve() != Unsat {
		t.Fatal("dead solver must answer unsat")
	}
}

// xorNet builds a netlist computing the parity of its inputs two ways
// (left fold vs balanced tree) for the encoder/miter tests.
func xorNet(name string, bits int, balanced bool) *netlist.Network {
	n := netlist.New(name)
	sigs := make([]netlist.Signal, bits)
	for i := range sigs {
		sigs[i] = n.AddInput("x")
	}
	if balanced {
		for len(sigs) > 1 {
			var next []netlist.Signal
			for i := 0; i+1 < len(sigs); i += 2 {
				next = append(next, n.AddGate(netlist.Xor, sigs[i], sigs[i+1]))
			}
			if len(sigs)%2 == 1 {
				next = append(next, sigs[len(sigs)-1])
			}
			sigs = next
		}
		n.AddOutput("p", sigs[0])
		return n
	}
	acc := sigs[0]
	for _, s := range sigs[1:] {
		acc = n.AddGate(netlist.Xor, acc, s)
	}
	n.AddOutput("p", acc)
	return n
}

func TestMiterEquivalent(t *testing.T) {
	a := xorNet("a", 20, false)
	b := xorNet("b", 20, true)
	res, err := Miter(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unsat {
		t.Fatalf("equivalent parity networks: %v", res.Status)
	}
}

func TestMiterCounterexample(t *testing.T) {
	a := xorNet("a", 20, false)
	b := xorNet("b", 20, true)
	b.Outputs[0].Sig = b.Outputs[0].Sig.Not()
	res, err := Miter(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat {
		t.Fatalf("flipped output: %v, want sat", res.Status)
	}
	if len(res.Inputs) != 20 {
		t.Fatalf("counterexample has %d inputs, want 20", len(res.Inputs))
	}
	// The assignment must actually distinguish the networks.
	words := make([]uint64, len(res.Inputs))
	for i, v := range res.Inputs {
		if v {
			words[i] = 1
		}
	}
	wa := a.OutputWords(words)
	wb := b.OutputWords(words)
	if wa[0]&1 == wb[0]&1 {
		t.Fatal("counterexample does not distinguish the networks")
	}
}

// TestEncodeNetworkAllOps cross-checks the CNF encoding of every gate type
// against word-level simulation: for a network using each op, encoded
// whole by EncodeCone (every output a root, every input seeded), the
// encoding restricted to a concrete input assignment must force exactly
// the simulated output values.
func TestEncodeNetworkAllOps(t *testing.T) {
	n := netlist.New("ops")
	var in []netlist.Signal
	for i := 0; i < 5; i++ {
		in = append(in, n.AddInput("x"))
	}
	n.AddOutput("and", n.AddGate(netlist.And, in[0], in[1], in[2]))
	n.AddOutput("nand", n.AddGate(netlist.Nand, in[0], in[3]))
	n.AddOutput("or", n.AddGate(netlist.Or, in[1], in[2], in[4]))
	n.AddOutput("nor", n.AddGate(netlist.Nor, in[2], in[3]))
	n.AddOutput("xor", n.AddGate(netlist.Xor, in[0], in[1], in[4]))
	n.AddOutput("xnor", n.AddGate(netlist.Xnor, in[3], in[4]))
	n.AddOutput("maj", n.AddGate(netlist.Maj, in[0], in[2], in[4]))
	n.AddOutput("mux", n.AddGate(netlist.Mux, in[0], in[1], in[2]))
	n.AddOutput("not", n.AddGate(netlist.Not, in[1]))
	n.AddOutput("buf", n.AddGate(netlist.Buf, netlist.SigConst0).Not())
	roots := make([]int, len(n.Outputs))
	for i, o := range n.Outputs {
		roots[i] = o.Sig.Node()
	}

	var scr ConeScratch
	for m := uint32(0); m < 32; m++ {
		s := NewSolver()
		lits := make([]Lit, len(n.Nodes))
		for i := range lits {
			lits[i] = LitUndef
		}
		words := make([]uint64, 5)
		var assumps []Lit
		for i, node := range n.Inputs {
			lits[node] = MkLit(s.NewVar(), false)
			bit := (m>>uint(i))&1 == 1
			if bit {
				words[i] = ^uint64(0)
			}
			assumps = append(assumps, lits[node].NotIf(!bit))
		}
		if err := EncodeCone(s, n, roots, lits, &scr); err != nil {
			t.Fatal(err)
		}
		want := n.OutputWords(words)
		if s.Solve(assumps...) != Sat {
			t.Fatalf("m=%d: encoding unsatisfiable under full input assignment", m)
		}
		for i, o := range n.Outputs {
			got := s.ValueLit(lits[o.Sig.Node()].NotIf(o.Sig.Neg()))
			if got != (want[i]&1 == 1) {
				t.Fatalf("m=%d output %d (%s): CNF=%v sim=%v", m, i, o.Name, got, want[i]&1 == 1)
			}
		}
	}
}
