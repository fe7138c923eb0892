package mig

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/equiv"
	"repro/internal/opt"
)

// fingerprint renders the full structural identity of a MIG — every node,
// fanin signal, level and output binding — so two graphs compare equal iff
// they are byte-identical constructions.
func fingerprint(m *MIG) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s inputs=%v\n", m.Name, m.inputs)
	for i, nd := range m.nodes {
		fmt.Fprintf(&b, "%d k%d l%d %d %d %d\n", i, nd.kind, nd.level, nd.fanin[0], nd.fanin[1], nd.fanin[2])
	}
	for _, o := range m.Outputs {
		fmt.Fprintf(&b, "out %s=%d\n", o.Name, o.Sig)
	}
	return b.String()
}

// budget returns a background context carrying a worker budget of n.
func budget(n int) context.Context { return opt.ContextWithWorkers(context.Background(), n) }

// must returns a pass engine's graph, panicking on its error: under a
// context that is never cancelled the engines cannot fail.
func must(m *MIG, err error) *MIG {
	if err != nil {
		panic(err)
	}
	return m
}

// Window partitioning must cover every live majority node exactly once,
// with windows internally in topological order.
func TestWindowsPartition(t *testing.T) {
	m := migFor(t, "C1355")
	live := m.LiveMask()
	windows := m.Windows()
	seen := make(map[int]bool)
	for _, w := range windows {
		if len(w) == 0 {
			t.Fatal("empty window")
		}
		for k, n := range w {
			if seen[n] {
				t.Fatalf("node %d in two windows", n)
			}
			seen[n] = true
			if k > 0 && w[k-1] >= n {
				t.Fatalf("window not in topological order: %v", w)
			}
			if !live[n] || m.nodes[n].kind != kindMaj {
				t.Fatalf("window contains non-live or non-maj node %d", n)
			}
		}
	}
	for i := range m.nodes {
		if live[i] && m.nodes[i].kind == kindMaj && !seen[i] {
			t.Fatalf("live node %d missing from windows", i)
		}
	}
}

// The window-parallel rewrite must produce byte-identical graphs for every
// worker count, and the result must stay functionally equivalent.
func TestWindowRewriteParallelIdentity(t *testing.T) {
	for _, bench := range []string{"b9", "count", "my_adder", "C1355", "alu4"} {
		m := migFor(t, bench)
		serial := must(m.Clone().WindowRewritePass(context.Background(), 4, 5))
		want := fingerprint(serial)
		for _, jobs := range []int{2, 3, 8} {
			par := must(m.Clone().WindowRewritePass(budget(jobs), 4, 5))
			if got := fingerprint(par); got != want {
				t.Fatalf("%s: jobs=%d differs from serial", bench, jobs)
			}
		}
		res, err := equiv.Check(context.Background(), m.ToNetwork(), serial.ToNetwork(), equiv.Options{})
		if err != nil || !res.Equivalent {
			t.Fatalf("%s: window rewrite broke equivalence: %v %v", bench, res, err)
		}
	}
}

// WindowRewritePass must not mutate its input graph, which its workers
// share and only probe dry.
func TestWindowRewriteLeavesInputIntact(t *testing.T) {
	m := migFor(t, "count")
	before := fingerprint(m)
	_ = must(m.WindowRewritePass(context.Background(), 4, 5))
	if fingerprint(m) != before {
		t.Fatal("jobs=1 run mutated the input graph")
	}
	_ = must(m.WindowRewritePass(budget(4), 4, 5))
	if fingerprint(m) != before {
		t.Fatal("parallel run mutated the input graph")
	}
}

// The registered window-rewrite pass must run inside a scripted pipeline
// with per-pass equivalence checking, for any worker budget.
func TestWindowRewriteScripted(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		m := migFor(t, "b9")
		p, err := ParseScript("cleanup; window-rewrite; eliminate(3)")
		if err != nil {
			t.Fatal(err)
		}
		p.Check = opt.EquivChecker(equiv.Options{})
		res, trace, err := p.Run(budget(jobs), m)
		if err != nil {
			t.Fatalf("jobs=%d: %v\n%s", jobs, err, trace.Format())
		}
		if res.Size() == 0 {
			t.Fatal("empty result")
		}
	}
}

// The full experiment engine must stay byte-deterministic when the MIG flow
// is a window-parallel script: same report for jobs=1 and jobs=N.
func TestWindowRewriteBenchDeterminism(t *testing.T) {
	// Covered end to end by the migbench -mig-script flag; here we check
	// the pass output feeding it (the report fields are derived from the
	// graphs, and times are normalized by -zero-time).
	m := migFor(t, "misex3")
	a := must(m.Clone().WindowRewritePass(context.Background(), 4, 5)).Cleanup()
	b := must(m.Clone().WindowRewritePass(budget(6), 4, 5)).Cleanup()
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("cleanup after parallel rewrite differs from serial")
	}
	if a.Size() > m.Size() {
		t.Fatalf("window rewrite grew the graph: %d -> %d", m.Size(), a.Size())
	}
}

// window-rewrite cut sizes beyond the word-synthesis bound must be rejected
// at parse time.
func TestWindowRewriteScriptArgBounds(t *testing.T) {
	if _, err := ParseScript("window-rewrite(7)"); err == nil {
		t.Fatal("k=7 must be rejected")
	}
	if _, err := ParseScript("window-rewrite(6, 8)"); err != nil {
		t.Fatalf("k=6 must parse: %v", err)
	}
	if _, err := ParseScript("window-rewrite(1)"); err == nil {
		t.Fatal("k=1 must be rejected")
	}
}
