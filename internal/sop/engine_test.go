package sop

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/tt"
)

// sameFactoring fails unless the word engine's FactorTT and the reference
// return the same tree (node for node), string and phase for f, and their
// minimized covers of f and f' match cube for cube.
func sameFactoring(t *testing.T, s *Factorer, f tt.TT) {
	t.Helper()
	n := f.NumVars()
	zero := tt.Const(n, false)
	for _, g := range []tt.TT{f, f.Not()} {
		got, want := Minimize(g, zero), refMinimize(g, zero)
		if !slices.Equal(got.Cubes, want.Cubes) {
			t.Fatalf("%v: Minimize = %v, reference %v", g, got.Cubes, want.Cubes)
		}
	}
	e, neg := s.FactorTT(f)
	we, wneg := refFactorTT(f)
	if neg != wneg || e.String() != we.String() || !reflect.DeepEqual(e, we) {
		t.Fatalf("%v: FactorTT = %s (complement %v), reference %s (complement %v)", f, e, neg, we, wneg)
	}
	got := e.TT(n)
	if neg {
		got = got.Not()
	}
	if !got.Equal(f) {
		t.Fatalf("%v: factored form %s computes %v", f, e, got)
	}
}

func TestFactorTTMatchesReferenceSmall(t *testing.T) {
	var s Factorer
	for n := 0; n <= 3; n++ {
		for w := uint64(0); w < 1<<(1<<n); w++ {
			sameFactoring(t, &s, tt.FromWords(n, []uint64{w}))
		}
	}
}

func TestFactorTTMatchesReferenceFourVars(t *testing.T) {
	var s Factorer
	for w := uint64(0); w < 1<<16; w += 61 {
		sameFactoring(t, &s, tt.FromWords(4, []uint64{w}))
	}
}

func TestFactorTTMatchesReferenceRandom(t *testing.T) {
	var s Factorer
	r := rand.New(rand.NewSource(30))
	for n := 5; n <= 8; n++ {
		trials := 12
		if n > 6 {
			trials = 4 // the reference takes tens of milliseconds each
		}
		for trial := 0; trial < trials; trial++ {
			f := randTT(r, n)
			if trial%3 == 1 {
				// Sparse functions have larger covers to factor.
				f = f.And(randTT(r, n))
			}
			sameFactoring(t, &s, f)
		}
	}
}

func TestMinimizeDontCaresMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 20; trial++ {
			on := randTT(r, n)
			dc := randTT(r, n).AndNot(on)
			if trial%2 == 1 {
				on = on.And(randTT(r, n))
			}
			if got, want := tt.ISOP(on, dc), refISOP(on, dc); !slices.Equal(got, want) {
				t.Fatalf("n=%d: ISOP = %v, reference %v", n, got, want)
			}
			got, want := Minimize(on, dc), refMinimize(on, dc)
			if !slices.Equal(got.Cubes, want.Cubes) {
				t.Fatalf("n=%d: Minimize = %v, reference %v", n, got.Cubes, want.Cubes)
			}
			if err := got.Verify(on, dc); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStepsMatchReference runs each espresso step once on covers the loop
// never produces itself: ISOP covers with a cube repeated and a cube
// widened by one literal.
func TestStepsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		n := 2 + trial%7
		on := randTT(r, n)
		dc := randTT(r, n).AndNot(on).And(randTT(r, n))
		cubes := tt.ISOP(on, dc)
		if len(cubes) == 0 {
			continue
		}
		cubes = append(cubes, cubes[r.Intn(len(cubes))], cubes[0].WithLit(r.Intn(n), r.Intn(2) == 0))
		for step := 0; step < 3; step++ {
			got := Cover{NumVars: n, Cubes: slices.Clone(cubes)}
			want := Cover{NumVars: n, Cubes: slices.Clone(cubes)}
			switch step {
			case 0:
				got.Expand(on, dc)
				refExpand(&want, on, dc)
			case 1:
				got.Irredundant(on, dc)
				refIrredundant(&want, on)
			case 2:
				got.Reduce(on, dc)
				refReduce(&want, on)
			}
			if !slices.Equal(got.Cubes, want.Cubes) {
				t.Fatalf("trial %d step %d: %v, reference %v", trial, step, got.Cubes, want.Cubes)
			}
		}
	}
}

func TestFactorMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 2 + trial%7
		c := FromTT(randTT(r, n))
		c.Cubes = append(c.Cubes, tt.Cube{})
		if got, want := Factor(c), refFactor(Cover{NumVars: n, Cubes: slices.Clone(c.Cubes)}); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Factor = %s, reference %s", trial, got, want)
		}
	}
}

func FuzzFactorTT(f *testing.F) {
	f.Add(uint8(4), uint64(0x6996))
	f.Add(uint8(6), uint64(0x8000000000000001))
	f.Add(uint8(3), uint64(0xe8))
	f.Add(uint8(0), uint64(1))
	var s Factorer
	f.Fuzz(func(t *testing.T, arity uint8, word uint64) {
		sameFactoring(t, &s, tt.FromWords(int(arity%7), []uint64{word}))
	})
}

// TestFactorTTAllocsFlat pins that a warm Factorer allocates the same on
// a one-cube function as on six-variable parity, whose covers have 32
// cubes of six literals: the expression's two slabs, nothing per cube.
func TestFactorTTAllocsFlat(t *testing.T) {
	and2 := tt.Var(6, 0).And(tt.Var(6, 1))
	parity := tt.Const(6, false)
	for v := 0; v < 6; v++ {
		parity = parity.Xor(tt.Var(6, v))
	}
	var s Factorer
	small := testing.AllocsPerRun(20, func() { s.FactorTT(and2) })
	large := testing.AllocsPerRun(20, func() { s.FactorTT(parity) })
	t.Logf("allocations per FactorTT: %.0f on AND2, %.0f on parity", small, large)
	if large > small || large > 2 {
		t.Errorf("FactorTT allocates %.0f times on parity against %.0f on AND2: per-cube allocation is back", large, small)
	}
}

// BenchmarkFactorTT factors a spread of 4-variable functions, the size of
// the cut functions the AIG rewrite and refactor passes factor.
func BenchmarkFactorTT(b *testing.B) {
	var fs []tt.TT
	for w := uint64(1); w < 1<<16; w += 1021 {
		fs = append(fs, tt.FromWords(4, []uint64{w}))
	}
	var s Factorer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchExpr, _ = s.FactorTT(fs[i%len(fs)])
	}
}

var benchExpr *Expr
