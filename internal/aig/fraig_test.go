package aig

import (
	"context"
	"testing"

	"repro/internal/equiv"
	"repro/internal/mcnc"
	"repro/internal/opt"
)

// budget returns a background context carrying a worker budget of n.
func budget(n int) context.Context { return opt.ContextWithWorkers(context.Background(), n) }

// must returns a pass engine's graph, panicking on its error: under a
// context that is never cancelled the engines cannot fail.
func must(a *AIG, err error) *AIG {
	if err != nil {
		panic(err)
	}
	return a
}

// TestFraigPreservesEquivalenceAIG: fraig on representative MCNC circuits
// must preserve function and never grow the AIG.
func TestFraigPreservesEquivalenceAIG(t *testing.T) {
	for _, bench := range []string{"b9", "count", "dalu", "C1355", "misex3"} {
		n, err := mcnc.Generate(bench)
		if err != nil {
			t.Fatal(err)
		}
		a := FromNetwork(n)
		f := must(a.FraigPass(context.Background(), 4, 2, 2000))
		if f.Size() > a.Size() {
			t.Errorf("%s: fraig grew the AIG %d -> %d", bench, a.Size(), f.Size())
		}
		res, err := equiv.Check(context.Background(), n, f.ToNetwork(), equiv.Options{})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if !res.Equivalent {
			t.Errorf("%s: fraig broke equivalence (%s: %s)", bench, res.Method, res.Detail)
		}
	}
}

// TestFraigMergesRedundancyAIG: two structurally different builds of one
// function must collapse into a shared cone.
func TestFraigMergesRedundancyAIG(t *testing.T) {
	a := New("redundant")
	var xs [6]Signal
	for i := range xs {
		xs[i] = a.AddInput("x")
	}
	fold := xs[0]
	for _, x := range xs[1:] {
		fold = a.Xor(fold, x)
	}
	tree := a.Xor(a.Xor(xs[0], xs[1]), a.Xor(a.Xor(xs[2], xs[3]), a.Xor(xs[4], xs[5])))
	a.AddOutput("fold", fold)
	a.AddOutput("tree", tree)

	before := a.Size()
	f := must(a.FraigPass(context.Background(), 4, 2, 2000))
	if f.Size() >= before {
		t.Fatalf("fraig failed to merge duplicated parity: size %d -> %d", before, f.Size())
	}
	res, err := equiv.Check(context.Background(), a.ToNetwork(), f.ToNetwork(), equiv.Options{})
	if err != nil || !res.Equivalent {
		t.Fatalf("merge broke function: %v %v", res, err)
	}
}

// The pass must be registered, script-addressable with validated args, and
// worker-count invariant.
func TestFraigRegisteredAndJobsInvariantAIG(t *testing.T) {
	p, err := ParseScript("balance; fraig; rewrite")
	if err != nil {
		t.Fatal(err)
	}
	n, err := mcnc.Generate("b9")
	if err != nil {
		t.Fatal(err)
	}
	p.Check = opt.EquivChecker(equiv.Options{})
	if _, trace, err := p.Run(context.Background(), FromNetwork(n)); err != nil {
		t.Fatalf("%v\n%s", err, trace.Format())
	}
	if _, err := ParseScript("fraig(4, 2, 0)"); err == nil {
		t.Error("degenerate conflict budget accepted")
	}
	sn := must(FromNetwork(n).FraigPass(context.Background(), 4, 2, 2000)).ToNetwork()
	for _, jobs := range []int{2, 8} {
		pn := must(FromNetwork(n).FraigPass(budget(jobs), 4, 2, 2000)).ToNetwork()
		if sn.NumGates() != pn.NumGates() || sn.Stats() != pn.Stats() {
			t.Errorf("fraig differs between 1 and %d workers", jobs)
		}
	}
}
