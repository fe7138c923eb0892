package mig

import (
	"strings"
	"testing"

	"repro/internal/equiv"
	"repro/internal/mcnc"
	"repro/internal/opt"
)

func migFor(t *testing.T, name string) *MIG {
	t.Helper()
	n, err := mcnc.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	return FromNetwork(n)
}

// runPipeline runs a canned pipeline on m.
func runPipeline(t testing.TB, p *opt.Pipeline[*MIG], m *MIG) *MIG {
	t.Helper()
	res, _, err := p.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every canned pipeline must keep functional equivalence after every single
// pass on real MCNC circuits (this is the per-step guarantee the engine's
// Check hook enforces at runtime).
func TestCannedPipelinesPreserveEquivalence(t *testing.T) {
	pipelines := map[string]*opt.Pipeline[*MIG]{
		"size":     SizePipeline(2),
		"depth":    DepthPipeline(2),
		"flow":     FlowPipeline(2),
		"activity": ActivityPipeline(1, nil),
	}
	for _, bench := range []string{"b9", "count", "my_adder"} {
		for label, p := range pipelines {
			p.Check = opt.EquivChecker(equiv.Options{})
			m := migFor(t, bench)
			res, trace, err := p.Run(m)
			if err != nil {
				t.Fatalf("%s on %s: %v\n%s", label, bench, err, trace.Format())
			}
			if len(trace) == 0 {
				t.Fatalf("%s on %s: empty trace", label, bench)
			}
			for _, st := range trace {
				if st.Equiv != "ok" {
					t.Errorf("%s on %s: pass %s equiv = %q", label, bench, st.Pass, st.Equiv)
				}
			}
			if res.Size() > m.Size()*2 {
				t.Errorf("%s on %s: size exploded %d -> %d", label, bench, m.Size(), res.Size())
			}
		}
	}
}

// The scripted pipeline must match the canned flow: Algorithm 1's cycle
// written as a script yields the same result as one SizePipeline cycle.
func TestScriptMatchesCannedCycle(t *testing.T) {
	m := migFor(t, "count")
	p, err := ParseScript("cleanup; eliminate(3); reshape-size(3); eliminate(3)")
	if err != nil {
		t.Fatal(err)
	}
	scripted, _, err := p.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	canned := runPipeline(t, SizePipeline(1), m)
	if scripted.Size() != canned.Size() || scripted.Depth() != canned.Depth() {
		t.Fatalf("script (%d, %d) != canned cycle (%d, %d)",
			scripted.Size(), scripted.Depth(), canned.Size(), canned.Depth())
	}
}

func TestParseScriptAgainstRegistry(t *testing.T) {
	p, err := ParseScript("eliminate(8); reshape-depth; eliminate; pushup; cut-rewrite; activity(2)")
	if err != nil {
		t.Fatal(err)
	}
	canonical := p.String()
	p2, err := ParseScript(canonical)
	if err != nil || p2.String() != canonical {
		t.Fatalf("round trip: %q vs %q (%v)", canonical, p2.String(), err)
	}
	if _, err := ParseScript("eliminatee"); err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("unknown pass err = %v", err)
	}
	if _, err := ParseScript("eliminate(1, 2)"); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("arity err = %v", err)
	}
}

// Degenerate argument values must be rejected at parse time, not compile
// into silent no-op passes.
func TestParseScriptRejectsDegenerateArgs(t *testing.T) {
	for _, bad := range []string{
		"pushup(-3)",
		"pushup(0)",
		"activity(0)",
		"reshape-size(0)",
		"reshape-depth(-1)",
		"eliminate(-1)",
		"eliminate-budget(0)",
	} {
		if _, err := ParseScript(bad); err == nil || !strings.Contains(err.Error(), "must be >=") {
			t.Errorf("ParseScript(%q) err = %v, want range error", bad, err)
		}
	}
	// window 0 on eliminate is the documented "no Ψ.R" mode, not an error.
	if _, err := ParseScript("eliminate(0)"); err != nil {
		t.Errorf("eliminate(0) must parse: %v", err)
	}
}

// A scripted run with verification enabled keeps every step green on a real
// circuit and produces an equivalent MIG.
func TestScriptedRunVerified(t *testing.T) {
	m := migFor(t, "alu4")
	p, err := ParseScript("eliminate(8); reshape-depth; eliminate; pushup")
	if err != nil {
		t.Fatal(err)
	}
	p.Check = opt.EquivChecker(equiv.Options{})
	res, trace, err := p.Run(m)
	if err != nil {
		t.Fatalf("%v\n%s", err, trace.Format())
	}
	if len(trace) != 4 {
		t.Fatalf("trace has %d steps, want 4", len(trace))
	}
	for _, st := range trace {
		if st.Equiv != "ok" {
			t.Errorf("pass %s equiv = %q", st.Pass, st.Equiv)
		}
	}
	if res.Depth() > m.Depth() {
		t.Errorf("pushup-terminated script worsened depth %d -> %d", m.Depth(), res.Depth())
	}
}

// Window-parallel rewriting must be byte-identical to its serial run on
// the whole MCNC suite, both as a bare pass and inside a scripted pipeline
// under different worker budgets.
func TestWindowRewriteParallelSerialIdentityMCNC(t *testing.T) {
	for _, bench := range mcnc.Names() {
		m := migFor(t, bench)
		serial := m.Clone().WindowRewritePass(4, 5, 1)
		parallel := m.Clone().WindowRewritePass(4, 5, 8)
		if fingerprint(serial) != fingerprint(parallel) {
			t.Errorf("%s: parallel window rewrite differs from serial", bench)
		}
	}
}

// The scripted form must equally be jobs-invariant: the same script under
// worker budgets 1 and 6 yields identical graphs.
func TestScriptedWindowRewriteJobsInvariant(t *testing.T) {
	defer opt.SetWorkers(1)
	script := "cleanup; window-rewrite; eliminate(3); window-rewrite(4, 8)"
	results := map[int]string{}
	for _, jobs := range []int{1, 6} {
		opt.SetWorkers(jobs)
		m := migFor(t, "dalu")
		p, err := ParseScript(script)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := p.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		results[jobs] = fingerprint(res)
	}
	if results[1] != results[6] {
		t.Fatal("scripted window rewrite depends on the worker budget")
	}
}

// An unsound pass must be caught by the pipeline checker.
func TestCheckerCatchesUnsoundPass(t *testing.T) {
	m := migFor(t, "b9")
	broken := opt.New("break-output", func(g *MIG) *MIG {
		out := g.Clone()
		out.Outputs[0].Sig = out.Outputs[0].Sig.Not()
		return out
	})
	p := &opt.Pipeline[*MIG]{
		Passes: []opt.Pass[*MIG]{passEliminate(3), broken},
		Check:  opt.EquivChecker(equiv.Options{}),
	}
	got, trace, err := p.Run(m)
	if err == nil {
		t.Fatal("checker must flag the unsound pass")
	}
	if len(trace) != 2 || trace[0].Equiv != "ok" || trace[1].Equiv == "ok" {
		t.Fatalf("trace = %+v", trace)
	}
	// The last good graph (after eliminate) is returned.
	if res, err2 := equiv.Check(m.ToNetwork(), got.ToNetwork(), equiv.Options{}); err2 != nil || !res.Equivalent {
		t.Fatalf("returned graph not the last good one: %v %v", res, err2)
	}
}
