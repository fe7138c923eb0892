package mig

import (
	"context"
	"testing"

	"repro/internal/equiv"
	"repro/internal/mcnc"
	"repro/internal/opt"
	"repro/internal/sat"
	"repro/internal/sweep"
)

// TestFraigPreservesEquivalenceMCNC: the acceptance property — on every
// MCNC circuit fraig preserves function (checked by the BDD engine where
// it fits, the exact/SAT layering otherwise) and never increases size.
func TestFraigPreservesEquivalenceMCNC(t *testing.T) {
	for _, bench := range mcnc.Names() {
		n, err := mcnc.Generate(bench)
		if err != nil {
			t.Fatal(err)
		}
		if testing.Short() && n.NumGates() > 3000 {
			continue
		}
		m := FromNetwork(n)
		f := must(m.FraigPass(context.Background(), 4, 2, 2000))
		if f.Size() > m.Size() {
			t.Errorf("%s: fraig grew the MIG %d -> %d", bench, m.Size(), f.Size())
		}
		// Prefer the canonical BDD verdict; fall back to the auto layering
		// (exact/SAT) where the BDDs do not fit.
		res, err := equiv.Check(context.Background(), n, f.ToNetwork(), equiv.Options{Engine: "bdd", BDDLimit: 1 << 20})
		if err != nil {
			res, err = equiv.Check(context.Background(), n, f.ToNetwork(), equiv.Options{})
		}
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if !res.Equivalent {
			t.Errorf("%s: fraig broke equivalence (%s: %s)", bench, res.Method, res.Detail)
		}
	}
}

// TestFraigMergesRedundancy: a graph holding two structurally different
// builds of the same function must collapse — structural hashing cannot
// merge them, only functional sweeping can.
func TestFraigMergesRedundancy(t *testing.T) {
	m := New("redundant")
	var xs [8]Signal
	for i := range xs {
		xs[i] = m.AddInput("x")
	}
	// Parity built as a left fold and as a balanced tree: same function,
	// different structure, so strashing keeps both cones.
	fold := xs[0]
	for _, x := range xs[1:] {
		fold = m.Xor(fold, x)
	}
	tree := m.Xor(m.Xor(m.Xor(xs[0], xs[1]), m.Xor(xs[2], xs[3])),
		m.Xor(m.Xor(xs[4], xs[5]), m.Xor(xs[6], xs[7])))
	m.AddOutput("fold", fold)
	m.AddOutput("tree", tree)

	before := m.Size()
	f := must(m.FraigPass(context.Background(), 4, 2, 2000))
	if f.Size() >= before {
		t.Fatalf("fraig failed to merge duplicated parity: size %d -> %d", before, f.Size())
	}
	res, err := equiv.Check(context.Background(), m.ToNetwork(), f.ToNetwork(), equiv.Options{})
	if err != nil || !res.Equivalent {
		t.Fatalf("merge broke function: %v %v", res, err)
	}
	// The two outputs must now share one cone.
	if f.Outputs[0].Sig.Node() != f.Outputs[1].Sig.Node() {
		t.Errorf("outputs still rooted in different nodes after fraig")
	}
}

// TestFraigMergesConstant: a cone that simplifies to a constant must merge
// into the constant node.
func TestFraigMergesConstant(t *testing.T) {
	m := New("const")
	a := m.AddInput("a")
	b := m.AddInput("b")
	// (a AND b) OR (a AND NOT b) OR (NOT a) == a OR NOT a == 1... build
	// a tautology the strash cannot see: (a&b) | (a&~b) | ~a.
	taut := m.Or(m.Or(m.And(a, b), m.And(a, b.Not())), a.Not())
	m.AddOutput("t", taut)
	m.AddOutput("keep", m.And(a, b))

	f := must(m.FraigPass(context.Background(), 2, 1, 2000))
	if !f.IsConst(f.Outputs[0].Sig) {
		t.Errorf("tautology output not merged into the constant node")
	}
	res, err := equiv.Check(context.Background(), m.ToNetwork(), f.ToNetwork(), equiv.Options{})
	if err != nil || !res.Equivalent {
		t.Fatalf("constant merge broke function: %v %v", res, err)
	}
}

// TestFraigScriptAddressable: the issue's example script must compile and
// run verified end to end.
func TestFraigScriptAddressable(t *testing.T) {
	m := migFor(t, "b9")
	p, err := ParseScript("eliminate; fraig; reshape-depth")
	if err != nil {
		t.Fatal(err)
	}
	p.Check = opt.EquivChecker(equiv.Options{})
	_, trace, err := p.Run(context.Background(), m)
	if err != nil {
		t.Fatalf("%v\n%s", err, trace.Format())
	}
	// Every step stays equivalence-checked; the fraig step itself must not
	// grow the graph (reshape-depth legitimately trades size for depth).
	for _, st := range trace {
		if st.Pass == "fraig" && st.SizeAfter > st.SizeBefore {
			t.Errorf("fraig step grew the graph %d -> %d", st.SizeBefore, st.SizeAfter)
		}
	}
	for _, bad := range []string{"fraig(0)", "fraig(4, 0)", "fraig(4, 2, 0)"} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q) accepted a degenerate argument", bad)
		}
	}
}

// TestFraigJobsInvariant: the pass must be byte-identical for any worker
// budget, like window-rewrite.
func TestFraigJobsInvariant(t *testing.T) {
	for _, bench := range []string{"b9", "dalu", "C1355"} {
		serial := fingerprint(must(migFor(t, bench).FraigPass(context.Background(), 4, 2, 2000)))
		for _, jobs := range []int{2, 8} {
			if got := fingerprint(must(migFor(t, bench).FraigPass(budget(jobs), 4, 2, 2000))); got != serial {
				t.Errorf("%s: fraig differs between 1 and %d workers", bench, jobs)
			}
		}
	}
}

// TestFraigSolverReuse: solver constructions must scale with the worker
// count, not the candidate-pair count. A circuit with hundreds of candidate
// pairs must get by on a handful of solvers (the pooled workers, plus any
// the GC recycled mid-pass).
func TestFraigSolverReuse(t *testing.T) {
	m := migFor(t, "dalu")
	before := sat.SolverConstructions()
	must(m.FraigPass(budget(4), 4, 2, 2000))
	if delta := sat.SolverConstructions() - before; delta > 64 {
		t.Errorf("fraig constructed %d solvers; reuse should keep this near the worker count", delta)
	}
}

// TestFraigCexPoolFlow: a context-scoped pool must collect this pass's
// refutation patterns, seed a later pass with them, and stay byte-identical
// for any worker budget — pool content included, since snapshot and commit
// happen in the serial part of the pass.
func TestFraigCexPoolFlow(t *testing.T) {
	run := func(jobs int) (*MIG, *MIG, int) {
		pool := sweep.NewCexPool(0)
		ctx := opt.ContextWithWorkers(sweep.ContextWithPool(context.Background(), pool), jobs)
		first, err := migFor(t, "dalu").FraigPass(ctx, 4, 2, 2000)
		if err != nil {
			t.Fatal(err)
		}
		second, err := first.FraigPass(ctx, 4, 2, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return first, second, pool.Len()
	}
	f1, s1, n1 := run(1)
	if n1 == 0 {
		t.Fatal("no refutation patterns committed to the pool")
	}
	f8, s8, n8 := run(8)
	if fingerprint(f1) != fingerprint(f8) || fingerprint(s1) != fingerprint(s8) {
		t.Error("pool-seeded fraig differs between 1 and 8 workers")
	}
	if n1 != n8 {
		t.Errorf("pool content depends on the worker budget: %d vs %d patterns", n1, n8)
	}
	// The first pass never sees the pool it is about to fill: with or
	// without a pool on the context, pass one is byte-identical.
	bare := must(migFor(t, "dalu").FraigPass(context.Background(), 4, 2, 2000))
	if fingerprint(bare) != fingerprint(f1) {
		t.Error("an empty pool changed the first pass's result")
	}
}

// BenchmarkFraigPass measures the sweep on a mid-size MCNC circuit; paired
// with the solver-construction counter it tracks the solver-reuse win.
func BenchmarkFraigPass(b *testing.B) {
	n, err := mcnc.Generate("dalu")
	if err != nil {
		b.Fatal(err)
	}
	m := FromNetwork(n)
	b.ReportAllocs()
	c0 := sat.SolverConstructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(m.FraigPass(context.Background(), 4, 2, 2000))
	}
	b.StopTimer()
	b.ReportMetric(float64(sat.SolverConstructions()-c0)/float64(b.N), "solvers/op")
}
