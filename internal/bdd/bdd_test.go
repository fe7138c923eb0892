package bdd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/netlist"
	"repro/internal/tt"
)

func TestVarAndEval(t *testing.T) {
	m := NewManager(3, 0)
	x := m.Var(0)
	if !m.Eval(x, []bool{true, false, false}) {
		t.Error("x(1,0,0) != 1")
	}
	if m.Eval(x, []bool{false, true, true}) {
		t.Error("x(0,1,1) != 0")
	}
}

func TestBasicOps(t *testing.T) {
	m := NewManager(2, 0)
	x, y := m.Var(0), m.Var(1)
	and, _ := m.And(x, y)
	or, _ := m.Or(x, y)
	xor, _ := m.Xor(x, y)
	nx, _ := m.Not(x)
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			env := []bool{a == 1, b == 1}
			if m.Eval(and, env) != (a == 1 && b == 1) {
				t.Error("and wrong")
			}
			if m.Eval(or, env) != (a == 1 || b == 1) {
				t.Error("or wrong")
			}
			if m.Eval(xor, env) != (a != b) {
				t.Error("xor wrong")
			}
			if m.Eval(nx, env) != (a == 0) {
				t.Error("not wrong")
			}
		}
	}
}

func TestCanonicity(t *testing.T) {
	// Two different constructions of the same function must be the same Ref.
	m := NewManager(3, 0)
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	// (x∧y)∨(x∧z)∨(y∧z) vs maj
	xy, _ := m.And(x, y)
	xz, _ := m.And(x, z)
	yz, _ := m.And(y, z)
	o1, _ := m.Or(xy, xz)
	o2, _ := m.Or(o1, yz)
	maj, _ := m.Maj(x, y, z)
	if o2 != maj {
		t.Error("BDD not canonical: maj built two ways differs")
	}
	// Double negation.
	nx, _ := m.Not(x)
	nnx, _ := m.Not(nx)
	if nnx != x {
		t.Error("double negation not identity")
	}
}

func TestNodeLimit(t *testing.T) {
	// A tiny limit must trip ErrLimit on a function with a large BDD.
	m := NewManager(16, 24)
	acc := False
	var err error
	for i := 0; i < 8; i++ {
		var p Ref
		p, err = m.And(m.Var(2*i), m.Var(2*i+1))
		if err != nil {
			break
		}
		acc, err = m.Xor(acc, p)
		if err != nil {
			break
		}
	}
	if err != ErrLimit {
		t.Errorf("expected ErrLimit, got %v", err)
	}
}

func randomNetwork(r *rand.Rand, ni, ng int) *netlist.Network {
	n := netlist.New("rand")
	var sigs []netlist.Signal
	for i := 0; i < ni; i++ {
		sigs = append(sigs, n.AddInput("i"))
	}
	ops := []netlist.Op{netlist.And, netlist.Or, netlist.Xor, netlist.Nand, netlist.Maj, netlist.Mux}
	for g := 0; g < ng; g++ {
		op := ops[r.Intn(len(ops))]
		pick := func() netlist.Signal {
			s := sigs[r.Intn(len(sigs))]
			if r.Intn(2) == 0 {
				s = s.Not()
			}
			return s
		}
		var s netlist.Signal
		if op == netlist.Maj || op == netlist.Mux {
			s = n.AddGate(op, pick(), pick(), pick())
		} else {
			s = n.AddGate(op, pick(), pick())
		}
		sigs = append(sigs, s)
	}
	for o := 0; o < 3; o++ {
		n.AddOutput("o", sigs[len(sigs)-1-o])
	}
	return n
}

// TestAddNetworkSharesNodes: a network built into a manager that holds
// an equivalent one gets the same roots, and nodes already there do not
// count against its limit; a build that needs more new nodes than the
// limit allows trips it.
func TestAddNetworkSharesNodes(t *testing.T) {
	n, err := mcnc.Generate("b9")
	if err != nil {
		t.Fatal(err)
	}
	m, roots, err := BuildNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := m.NumNodes()
	again, err := m.AddNetwork(n, 1)
	if err != nil || !slices.Equal(again, roots) || m.NumNodes() != nodes {
		t.Fatalf("second build: %v, %d nodes, want the same roots and %d nodes", err, m.NumNodes(), nodes)
	}
	other, err := mcnc.Generate("count")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(other.NumInputs(), 0).AddNetwork(other, 10); err != ErrLimit {
		t.Fatalf("count under a 10-node limit: %v, want ErrLimit", err)
	}
	if _, err := m.AddNetwork(other, 0); err == nil {
		t.Fatal("a network with another input count must be rejected")
	}
}

func TestBuildNetworkMatchesCollapse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := randomNetwork(r, 6, 30)
		m, roots, err := BuildNetwork(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		tts, err := n.CollapseTT()
		if err != nil {
			t.Fatal(err)
		}
		for i, root := range roots {
			for mt := 0; mt < 64; mt++ {
				env := make([]bool, 6)
				for v := 0; v < 6; v++ {
					env[v] = mt&(1<<uint(v)) != 0
				}
				if m.Eval(root, env) != tts[i].Bit(mt) {
					t.Fatalf("trial %d output %d minterm %d wrong", trial, i, mt)
				}
			}
		}
	}
}

func TestDecomposePreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := randomNetwork(r, 6, 30)
		dec, err := DecomposeNetwork(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := n.CollapseTT()
		if err != nil {
			t.Fatal(err)
		}
		t2, err := dec.CollapseTT()
		if err != nil {
			t.Fatal(err)
		}
		for i := range t1 {
			if !t1[i].Equal(t2[i]) {
				t.Fatalf("trial %d: decomposition changed output %d", trial, i)
			}
		}
	}
}

func TestDecomposeExtractsXor(t *testing.T) {
	// A parity function must decompose into XOR gates, not MUX trees.
	n := netlist.New("parity")
	var x netlist.Signal
	x = n.AddInput("a")
	for i := 1; i < 6; i++ {
		x = n.AddGate(netlist.Xor, x, n.AddInput("b"))
	}
	n.AddOutput("p", x)
	dec, err := DecomposeNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := dec.OpCounts()
	if counts[netlist.Mux] != 0 {
		t.Errorf("parity decomposition has %d MUX nodes, want 0", counts[netlist.Mux])
	}
	if counts[netlist.Xor] != 5 {
		t.Errorf("parity decomposition has %d XOR nodes, want 5", counts[netlist.Xor])
	}
}

func TestDecomposeExtractsAndOr(t *testing.T) {
	n := netlist.New("andor")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.AddOutput("f", n.AddGate(netlist.And, a, n.AddGate(netlist.Or, b, c)))
	dec, err := DecomposeNetwork(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := dec.OpCounts()
	if counts[netlist.Mux] != 0 {
		t.Errorf("a(b+c) decomposition uses MUX")
	}
	t1, _ := n.CollapseTT()
	t2, _ := dec.CollapseTT()
	if !t1[0].Equal(t2[0]) {
		t.Error("function changed")
	}
}

func TestDecomposeNetworkLimit(t *testing.T) {
	// A multiplier-like network with a tiny node limit must fail cleanly.
	n := netlist.New("mult")
	var rows [][]netlist.Signal
	var xs, ys []netlist.Signal
	for i := 0; i < 8; i++ {
		xs = append(xs, n.AddInput("x"))
	}
	for i := 0; i < 8; i++ {
		ys = append(ys, n.AddInput("y"))
	}
	for i := 0; i < 8; i++ {
		var row []netlist.Signal
		for j := 0; j < 8; j++ {
			row = append(row, n.AddGate(netlist.And, xs[i], ys[j]))
		}
		rows = append(rows, row)
	}
	// Sum diagonals with xor chains (not a real multiplier, but BDD-hard
	// enough once chained).
	acc := rows[0][0]
	for i := 1; i < 8; i++ {
		for j := 0; j < 8; j++ {
			acc = n.AddGate(netlist.Xor, acc, rows[i][j])
			acc = n.AddGate(netlist.Maj, acc, rows[i][(j+1)%8], rows[(i+j)%8][j])
		}
	}
	n.AddOutput("o", acc)
	_, err := DecomposeNetwork(n, 64)
	if err != ErrLimit {
		t.Errorf("want ErrLimit, got %v", err)
	}
}

func TestSharedNodesCount(t *testing.T) {
	m := NewManager(4, 0)
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	// parity(y, z) appears as the 1-cofactor of b = x ∧ parity(y, z), so b
	// and c = parity(y, z) share the parity subgraph.
	c, _ := m.Xor(y, z)
	b, _ := m.And(x, c)
	total := m.CountNodes([]Ref{b, c})
	sep := m.CountNodes([]Ref{b}) + m.CountNodes([]Ref{c})
	if total >= sep {
		t.Errorf("no sharing detected: total %d vs separate %d", total, sep)
	}
	if total != m.CountNodes([]Ref{b}) {
		t.Errorf("c not contained in b's subgraph: %d vs %d", total, m.CountNodes([]Ref{b}))
	}
}

func TestEvalAgainstTT(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Build a random function as tt and as BDD from its minterms; compare.
	for trial := 0; trial < 10; trial++ {
		f := tt.FromWords(4, []uint64{r.Uint64()})
		m := NewManager(4, 0)
		acc := False
		for mt := 0; mt < 16; mt++ {
			if !f.Bit(mt) {
				continue
			}
			cube := True
			for v := 0; v < 4; v++ {
				lit := m.Var(v)
				if mt&(1<<uint(v)) == 0 {
					lit, _ = m.Not(lit)
				}
				cube, _ = m.And(cube, lit)
			}
			acc, _ = m.Or(acc, cube)
		}
		for mt := 0; mt < 16; mt++ {
			env := make([]bool, 4)
			for v := 0; v < 4; v++ {
				env[v] = mt&(1<<uint(v)) != 0
			}
			if m.Eval(acc, env) != f.Bit(mt) {
				t.Fatalf("trial %d minterm %d", trial, mt)
			}
		}
	}
}

// fromTTShannon is FromTT as it was first written, one cofactor table
// per Shannon step: the reference for the word-level build.
func fromTTShannon(m *Manager, f tt.TT, top int) Ref {
	if f.IsConst0() {
		return False
	}
	if f.IsConst1() {
		return True
	}
	v := top
	for v >= 0 && !f.DependsOn(v) {
		v--
	}
	lo := fromTTShannon(m, f.Cofactor0(v), v-1)
	hi := fromTTShannon(m, f.Cofactor1(v), v-1)
	return m.mk(int32(v), lo, hi)
}

// TestFromTTMatchesShannon checks that FromTT allocates the nodes of the
// cofactor-table build in the same order, so every Ref is the same: on
// random tables of 0 to 10 variables, on tables that ignore some of their
// variables, and in a manager reused across builds.
func TestFromTTMatchesShannon(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	reused := NewManager(10, 0)
	for trial := 0; trial < 400; trial++ {
		n := trial % 11
		words := make([]uint64, max(1, 1<<max(0, n-6)))
		for i := range words {
			words[i] = r.Uint64()
		}
		f := tt.FromWords(n, words)
		// Every third table ignores a random subset of its variables,
		// and every seventh is constant.
		if trial%3 == 0 && n > 0 {
			for v := 0; v < n; v++ {
				if r.Intn(2) == 0 {
					f = f.Cofactor0(v)
				}
			}
		}
		if trial%7 == 0 {
			f = tt.Const(n, trial%2 == 0)
		}
		want := NewManager(10, 0)
		wantRoot := fromTTShannon(want, f, n-1)
		reused.Reset()
		for _, m := range []*Manager{NewManager(10, 0), reused} {
			root, err := m.FromTT(f)
			if err != nil || root != wantRoot || storeDigest(m) != storeDigest(want) {
				t.Fatalf("trial %d (%d vars): FromTT gave root %d, err %v, store %s; want root %d, store %s",
					trial, n, root, err, storeDigest(m), wantRoot, storeDigest(want))
			}
		}
	}
	// Under a limit FromTT stops where the reference does.
	f := tt.FromWords(8, []uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()})
	want := NewManager(8, 20)
	func() {
		defer func() { recover() }()
		fromTTShannon(want, f, 7)
	}()
	m := NewManager(8, 20)
	if _, err := m.FromTT(f); err != ErrLimit || m.NumNodes() != 20 || storeDigest(m) != storeDigest(want) {
		t.Errorf("FromTT under a 20-node limit: %v with %d nodes, want ErrLimit with the reference's 20", err, m.NumNodes())
	}
}

// TestFromTTAllocsFlat pins that FromTT into a reset manager allocates
// nothing once the manager's tables have grown to the function's size.
func TestFromTTAllocsFlat(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{6, 8} {
		words := make([]uint64, max(1, 1<<max(0, n-6)))
		for i := range words {
			words[i] = r.Uint64()
		}
		f := tt.FromWords(n, words)
		m := NewManager(n, 0)
		if _, err := m.FromTT(f); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			m.Reset()
			m.FromTT(f)
		})
		if allocs != 0 {
			t.Errorf("FromTT of a random %d-variable function allocates %.0f times in a warm manager, want 0", n, allocs)
		}
	}
}

// storeDigest hashes the node store in allocation order, so equal digests
// mean every Ref names the same node.
func storeDigest(m *Manager) string {
	h := sha256.New()
	var buf [12]byte
	for _, nd := range m.nodes {
		binary.LittleEndian.PutUint32(buf[0:], uint32(nd.varIdx))
		binary.LittleEndian.PutUint32(buf[4:], uint32(nd.lo))
		binary.LittleEndian.PutUint32(buf[8:], uint32(nd.hi))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestBuildLimitPinned pins, for every MCNC circuit, BuildNetwork under
// the equivalence checker's default limit and BuildNetworkOrdered with the
// static order under 1<<18, the cap BDS puts on its global builds' budget
// (the budget itself is usually far smaller; see bench.BDSOptimize). Each pin
// holds the error, NumNodes, CountNodes of the roots and a digest of the
// node store, which fixes every Ref and, on ErrLimit, the point where the
// limit tripped. The lossy computed table may change how long a build
// takes, never these.
func TestBuildLimitPinned(t *testing.T) {
	type buildPin struct {
		Err           error
		Nodes, Shared int
		Store         string
	}
	pins := []struct {
		name          string
		plain, static buildPin
	}{
		{"C1355", buildPin{nil, 7900, 6296, "06d3e162c998c5cf"}, buildPin{nil, 6632, 4480, "53e7012646008971"}},
		{"C1908", buildPin{ErrLimit, 200000, 0, "a8e442869802f56b"}, buildPin{ErrLimit, 262144, 0, "2a816b973f0bd4dd"}},
		{"C6288", buildPin{ErrLimit, 200000, 0, "db4978b98d9d227e"}, buildPin{ErrLimit, 262144, 0, "73fceb6e1d449974"}},
		{"bigkey", buildPin{nil, 5095, 2446, "d9d33d538fc9222a"}, buildPin{nil, 7888, 4716, "478ea5511e5a04f9"}},
		{"my_adder", buildPin{ErrLimit, 200000, 0, "da192469a5705c6c"}, buildPin{nil, 2373, 488, "6bd17d8f9271de2d"}},
		{"cla", buildPin{ErrLimit, 200000, 0, "9002650833bc4516"}, buildPin{nil, 25015, 6560, "fc8da878e336355e"}},
		{"dalu", buildPin{ErrLimit, 200000, 0, "db1e493a45bd3a75"}, buildPin{nil, 66865, 41561, "ceba94bfc40dbf3b"}},
		{"b9", buildPin{nil, 2033, 1119, "760624a10adbdd8d"}, buildPin{nil, 1474, 790, "aa7e5f1f1a72dcd5"}},
		{"count", buildPin{nil, 975, 222, "91f57e2c40011bcf"}, buildPin{nil, 447, 216, "c5c85d77b361ad0a"}},
		{"alu4", buildPin{nil, 1065, 491, "4987fca1ba353b0d"}, buildPin{nil, 1912, 723, "652796fc35bb9355"}},
		{"clma", buildPin{ErrLimit, 200000, 0, "39b730ebabc1ec75"}, buildPin{ErrLimit, 262144, 0, "59b71d400f177fef"}},
		{"mm30a", buildPin{ErrLimit, 200000, 0, "fa3b205d609a4459"}, buildPin{ErrLimit, 262144, 0, "dff1d8934b9971c4"}},
		{"s38417", buildPin{nil, 58488, 23473, "d124328e50975a8f"}, buildPin{nil, 62307, 25288, "070f97332e4af390"}},
		{"misex3", buildPin{nil, 11107, 2998, "cc962240f462ef0c"}, buildPin{nil, 9433, 2626, "7c1bb536fc8574bb"}},
	}
	for _, p := range pins {
		n, err := mcnc.Generate(p.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			limit int
			order []int // nil: BuildNetwork's declaration order
			want  buildPin
		}{{200_000, nil, p.plain}, {1 << 18, StaticOrder(n), p.static}} {
			var m *Manager
			var roots []Ref
			level := make([]int, n.NumInputs())
			if c.order == nil {
				m, roots, err = BuildNetwork(n, c.limit)
				for i := range level {
					level[i] = i
				}
			} else {
				m, roots, err = BuildNetworkOrdered(n, c.limit, c.order)
				for k, v := range c.order {
					level[v] = k
				}
			}
			what := fmt.Sprintf("%s, limit %d, static order %v", p.name, c.limit, c.order != nil)
			got := buildPin{Err: err}
			if err == nil {
				got.Nodes, got.Shared, got.Store = m.NumNodes(), m.CountNodes(roots), storeDigest(m)
				// A second build into the same manager finds every node,
				// and one after a reset allocates them all again in order.
				again, err := m.build(n, level, make([]Ref, len(n.Nodes)))
				if err != nil || !slices.Equal(again, roots) || m.NumNodes() != got.Nodes {
					t.Errorf("%s: rebuild gave %v with %d nodes, want the same roots with %d", what, err, m.NumNodes(), got.Nodes)
				}
				m.Reset()
				again, err = m.build(n, level, make([]Ref, len(n.Nodes)))
				if err != nil || !slices.Equal(again, roots) || storeDigest(m) != got.Store {
					t.Errorf("%s: build after reset gave %v and a different store", what, err)
				}
			} else {
				if m != nil || roots != nil {
					t.Errorf("%s: %v returned with a manager or roots", what, err)
				}
				// The exported call drops the manager: build again to read
				// the store where the limit tripped.
				m = NewManager(n.NumInputs(), c.limit)
				_, err = m.build(n, level, make([]Ref, len(n.Nodes)))
				got.Nodes, got.Store = m.NumNodes(), storeDigest(m)
				if err != ErrLimit {
					t.Errorf("%s: rebuild gave %v after ErrLimit", what, err)
				}
			}
			if got != c.want {
				t.Errorf("%s: got %+v, want %+v", what, got, c.want)
			}
		}
	}
}

// BenchmarkBuildNetwork measures whole-network builds under a 1<<18-node
// limit: dalu with the static order, which succeeds, and my_adder with
// the declaration order, which trips the limit.
func BenchmarkBuildNetwork(b *testing.B) {
	for _, c := range []struct {
		name    string
		static  bool
		wantErr error
	}{{"dalu", true, nil}, {"my_adder", false, ErrLimit}} {
		n, err := mcnc.Generate(c.name)
		if err != nil {
			b.Fatal(err)
		}
		order := StaticOrder(n)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if c.static {
					_, _, err = BuildNetworkOrdered(n, 1<<18, order)
				} else {
					_, _, err = BuildNetwork(n, 1<<18)
				}
				if err != c.wantErr {
					b.Fatalf("got %v, want %v", err, c.wantErr)
				}
			}
		})
	}
}
