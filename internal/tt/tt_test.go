package tt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randTT(r *rand.Rand, n int) TT {
	t := New(n)
	for i := range t.words {
		t.words[i] = r.Uint64()
	}
	t.mask()
	return t
}

func TestConst(t *testing.T) {
	for n := 0; n <= 8; n++ {
		c0 := Const(n, false)
		c1 := Const(n, true)
		if !c0.IsConst0() || c0.IsConst1() {
			t.Errorf("n=%d: Const(false) misclassified", n)
		}
		if !c1.IsConst1() || c1.IsConst0() {
			t.Errorf("n=%d: Const(true) misclassified", n)
		}
		if c0.CountOnes() != 0 {
			t.Errorf("n=%d: const0 has %d ones", n, c0.CountOnes())
		}
		if c1.CountOnes() != 1<<uint(n) {
			t.Errorf("n=%d: const1 has %d ones, want %d", n, c1.CountOnes(), 1<<uint(n))
		}
	}
}

func TestVarBits(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for i := 0; i < n; i++ {
			v := Var(n, i)
			for m := 0; m < 1<<uint(n); m++ {
				want := m&(1<<uint(i)) != 0
				if v.Bit(m) != want {
					t.Fatalf("n=%d var=%d minterm=%d: got %v want %v", n, i, m, v.Bit(m), want)
				}
			}
		}
	}
}

func TestVarProb(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for i := 0; i < n; i++ {
			if p := Var(n, i).Prob(); p != 0.5 {
				t.Errorf("n=%d var %d prob = %v, want 0.5", n, i, p)
			}
		}
	}
}

func TestDeMorgan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 1; n <= 9; n++ {
		for trial := 0; trial < 20; trial++ {
			a, b := randTT(r, n), randTT(r, n)
			lhs := a.And(b).Not()
			rhs := a.Not().Or(b.Not())
			if !lhs.Equal(rhs) {
				t.Fatalf("n=%d: De Morgan violated", n)
			}
		}
	}
}

func TestXorIdentities(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 1; n <= 9; n++ {
		a := randTT(r, n)
		if !a.Xor(a).IsConst0() {
			t.Fatalf("n=%d: a^a != 0", n)
		}
		if !a.Xor(Const(n, false)).Equal(a) {
			t.Fatalf("n=%d: a^0 != a", n)
		}
		if !a.Xor(Const(n, true)).Equal(a.Not()) {
			t.Fatalf("n=%d: a^1 != a'", n)
		}
	}
}

func TestMaj3Definition(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 8; n++ {
		a, b, c := randTT(r, n), randTT(r, n), randTT(r, n)
		m := Maj3(a, b, c)
		want := a.And(b).Or(a.And(c)).Or(b.And(c))
		if !m.Equal(want) {
			t.Fatalf("n=%d: Maj3 mismatch", n)
		}
	}
}

func TestMaj3SpecialCases(t *testing.T) {
	n := 6
	r := rand.New(rand.NewSource(4))
	a, z := randTT(r, n), randTT(r, n)
	// M(x, x, z) = x
	if !Maj3(a, a, z).Equal(a) {
		t.Error("M(x,x,z) != x")
	}
	// M(x, x', z) = z
	if !Maj3(a, a.Not(), z).Equal(z) {
		t.Error("M(x,x',z) != z")
	}
	// M(a, b, 0) = a AND b
	if !Maj3(a, z, Const(n, false)).Equal(a.And(z)) {
		t.Error("M(a,b,0) != a&b")
	}
	// M(a, b, 1) = a OR b
	if !Maj3(a, z, Const(n, true)).Equal(a.Or(z)) {
		t.Error("M(a,b,1) != a|b")
	}
}

func TestMajInverterPropagation(t *testing.T) {
	// Ω.I: M'(x,y,z) = M(x',y',z')
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(8)
		a, b, c := randTT(r, n), randTT(r, n), randTT(r, n)
		if !Maj3(a, b, c).Not().Equal(Maj3(a.Not(), b.Not(), c.Not())) {
			t.Fatal("inverter propagation violated")
		}
	}
}

func TestMajAssociativity(t *testing.T) {
	// Ω.A: M(x,u,M(y,u,z)) = M(z,u,M(y,u,x))
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(8)
		x, u, y, z := randTT(r, n), randTT(r, n), randTT(r, n), randTT(r, n)
		lhs := Maj3(x, u, Maj3(y, u, z))
		rhs := Maj3(z, u, Maj3(y, u, x))
		if !lhs.Equal(rhs) {
			t.Fatal("associativity violated")
		}
	}
}

func TestMajDistributivity(t *testing.T) {
	// Ω.D: M(x,y,M(u,v,z)) = M(M(x,y,u),M(x,y,v),z)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(8)
		x, y, u, v, z := randTT(r, n), randTT(r, n), randTT(r, n), randTT(r, n), randTT(r, n)
		lhs := Maj3(x, y, Maj3(u, v, z))
		rhs := Maj3(Maj3(x, y, u), Maj3(x, y, v), z)
		if !lhs.Equal(rhs) {
			t.Fatal("distributivity violated")
		}
	}
}

func TestCofactors(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for n := 1; n <= 9; n++ {
		f := randTT(r, n)
		for i := 0; i < n; i++ {
			c0, c1 := f.Cofactor0(i), f.Cofactor1(i)
			if c0.DependsOn(i) || c1.DependsOn(i) {
				t.Fatalf("n=%d i=%d: cofactor depends on cofactored variable", n, i)
			}
			// Shannon expansion.
			v := Var(n, i)
			re := v.And(c1).Or(v.Not().And(c0))
			if !re.Equal(f) {
				t.Fatalf("n=%d i=%d: Shannon expansion mismatch", n, i)
			}
		}
	}
}

func TestFlipVar(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for n := 1; n <= 9; n++ {
		f := randTT(r, n)
		for i := 0; i < n; i++ {
			g := f.FlipVar(i)
			if !g.FlipVar(i).Equal(f) {
				t.Fatalf("n=%d i=%d: double flip != identity", n, i)
			}
			if !g.Cofactor0(i).Equal(f.Cofactor1(i)) {
				t.Fatalf("n=%d i=%d: flip did not exchange cofactors", n, i)
			}
		}
	}
}

func TestSwapVars(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for n := 2; n <= 8; n++ {
		f := randTT(r, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g := f.SwapVars(i, j)
				if !g.SwapVars(i, j).Equal(f) {
					t.Fatalf("n=%d swap(%d,%d) not involutive", n, i, j)
				}
			}
		}
		// Check against minterm-level definition for one pair.
		g := f.SwapVars(0, 1)
		for m := 0; m < 1<<uint(n); m++ {
			b0, b1 := m&1, (m>>1)&1
			sm := (m &^ 3) | b0<<1 | b1
			if g.Bit(m) != f.Bit(sm) {
				t.Fatalf("n=%d: swap(0,1) wrong at minterm %d", n, m)
			}
		}
	}
}

func TestPermuteIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		f := randTT(r, n)
		if !f.Permute(identityPerm(n)).Equal(f) {
			t.Fatalf("n=%d: identity permutation changed function", n)
		}
	}
}

func TestPermuteMatchesSwap(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	n := 5
	f := randTT(r, n)
	perm := []int{1, 0, 2, 3, 4}
	if !f.Permute(perm).Equal(f.SwapVars(0, 1)) {
		t.Error("Permute transposition != SwapVars")
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for n := 2; n <= 10; n++ {
		f := randTT(r, n)
		g, err := FromHex(n, f.Hex())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !g.Equal(f) {
			t.Fatalf("n=%d: hex round trip mismatch: %s vs %s", n, f.Hex(), g.Hex())
		}
	}
}

func TestFromHexErrors(t *testing.T) {
	if _, err := FromHex(4, "123"); err == nil {
		t.Error("short hex string accepted")
	}
	if _, err := FromHex(4, "12g4"); err == nil {
		t.Error("invalid hex char accepted")
	}
}

func TestSupport(t *testing.T) {
	n := 6
	f := Var(n, 1).And(Var(n, 4))
	s := f.Support()
	if len(s) != 2 || s[0] != 1 || s[1] != 4 {
		t.Errorf("support = %v, want [1 4]", s)
	}
}

func TestMuxDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	n := 7
	s, a, b := randTT(r, n), randTT(r, n), randTT(r, n)
	m := Mux(s, a, b)
	want := s.And(a).Or(s.Not().And(b))
	if !m.Equal(want) {
		t.Error("Mux mismatch")
	}
}

func TestISOPCoversFunction(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 10; trial++ {
			f := randTT(r, n)
			cover := SOP(f)
			if !CoverTT(cover, n).Equal(f) {
				t.Fatalf("n=%d: SOP cover does not equal function", n)
			}
		}
	}
}

func TestISOPWithDontCares(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for n := 2; n <= 7; n++ {
		for trial := 0; trial < 10; trial++ {
			on := randTT(r, n)
			dc := randTT(r, n).AndNot(on)
			cover := ISOP(on, dc)
			got := CoverTT(cover, n)
			// Must cover the onset and stay inside on ∪ dc.
			if !on.AndNot(got).IsConst0() {
				t.Fatalf("n=%d: onset not covered", n)
			}
			if !got.AndNot(on.Or(dc)).IsConst0() {
				t.Fatalf("n=%d: cover leaves care set", n)
			}
		}
	}
}

func TestISOPIrredundant(t *testing.T) {
	// Dropping any single cube must uncover part of the onset.
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(5)
		f := randTT(r, n)
		cover := SOP(f)
		for drop := range cover {
			rest := make([]Cube, 0, len(cover)-1)
			rest = append(rest, cover[:drop]...)
			rest = append(rest, cover[drop+1:]...)
			if CoverTT(rest, n).Equal(f) && !f.IsConst0() {
				t.Fatalf("cover has redundant cube %d of %d (n=%d)", drop, len(cover), n)
			}
		}
	}
}

func TestCubePLA(t *testing.T) {
	c := Cube{}.WithLit(0, true).WithLit(2, false)
	if got := c.PLA(3); got != "1-0" {
		t.Errorf("PLA = %q, want 1-0", got)
	}
	if c.NumLits() != 2 {
		t.Errorf("NumLits = %d, want 2", c.NumLits())
	}
}

func TestNPNCanonInvariance(t *testing.T) {
	// All NPN transforms of f must canonicalize to the same representative.
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		n := 3
		f := randTT(r, n)
		canon, _ := NPNCanon(f)
		for _, variant := range []TT{
			f.Not(),
			f.FlipVar(0),
			f.SwapVars(0, 2),
			f.FlipVar(1).SwapVars(1, 2).Not(),
		} {
			c2, _ := NPNCanon(variant)
			if !c2.Equal(canon) {
				t.Fatalf("NPN canon not invariant: %s vs %s", c2.Hex(), canon.Hex())
			}
		}
	}
}

func TestNPNTransformApplyInverse(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		n := 4
		f := randTT(r, n)
		canon, tr := NPNCanon(f)
		if !tr.Apply(f).Equal(canon) {
			t.Fatal("transform does not map f to canon")
		}
		if !tr.Inverse().Apply(canon).Equal(f) {
			t.Fatal("inverse transform does not map canon back to f")
		}
	}
}

func TestNPNClassCount3(t *testing.T) {
	// The number of NPN classes of 3-variable functions is 14.
	seen := map[string]bool{}
	for v := 0; v < 256; v++ {
		f := FromWords(3, []uint64{uint64(v)})
		c, _ := NPNCanon(f)
		seen[c.Hex()] = true
	}
	if len(seen) != 14 {
		t.Errorf("3-var NPN classes = %d, want 14", len(seen))
	}
}

func TestQuickShannon(t *testing.T) {
	// Property: for random 6-var tables given as raw words, Shannon expansion
	// on every variable reconstructs the function.
	cfg := &quick.Config{MaxCount: 200}
	prop := func(w uint64) bool {
		f := FromWords(6, []uint64{w})
		for i := 0; i < 6; i++ {
			v := Var(6, i)
			if !Mux(v, f.Cofactor1(i), f.Cofactor0(i)).Equal(f) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickISOP(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	prop := func(w uint64) bool {
		f := FromWords(6, []uint64{w})
		return CoverTT(SOP(f), 6).Equal(f)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDistributivityLattice(t *testing.T) {
	// Median algebra property M(x, y, M(x, y, z)) = M(x, y, z)... actually
	// check the absorption-like identity M(x, x, M(y, z, w)) = x.
	cfg := &quick.Config{MaxCount: 100}
	prop := func(a, b, c uint64) bool {
		x := FromWords(6, []uint64{a})
		y := FromWords(6, []uint64{b})
		z := FromWords(6, []uint64{c})
		inner := Maj3(y, z, x)
		return Maj3(x, x, inner).Equal(x) &&
			Maj3(x, y, Maj3(x, y, z)).Equal(Maj3(x, y, z))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkMaj3_10(b *testing.B) {
	r := rand.New(rand.NewSource(21))
	x, y, z := randTT(r, 10), randTT(r, 10), randTT(r, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Maj3(x, y, z)
	}
}

func BenchmarkISOP_8(b *testing.B) {
	r := rand.New(rand.NewSource(22))
	f := randTT(r, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SOP(f)
	}
}
