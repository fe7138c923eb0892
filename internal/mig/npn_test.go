package mig

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/equiv"
	"repro/internal/npndb"
	"repro/internal/opt"
)

// wordSim computes the 16-bit truth table of s over the MIG's first four
// primary inputs (variable i = input i), simulating every node with word
// arithmetic. Nodes over other inputs must not be reachable from s.
func wordSim(m *MIG, s Signal) uint16 {
	vals := make([]uint64, len(m.nodes))
	for i, idx := range m.inputs {
		if i < 4 {
			vals[idx] = varWord(4, i)
		}
	}
	for i, nd := range m.nodes {
		if nd.kind != kindMaj {
			continue
		}
		f := func(x Signal) uint64 {
			v := vals[x.Node()]
			if x.Neg() {
				v = ^v
			}
			return v & wordMask(4)
		}
		vals[i] = maj3w(f(nd.fanin[0]), f(nd.fanin[1]), f(nd.fanin[2]))
	}
	v := vals[s.Node()]
	if s.Neg() {
		v = ^v
	}
	return uint16(v & wordMask(4))
}

// synthNPN must realize exactly the requested function for any leaf count
// the database serves, including the constant and degenerate cuts.
func TestSynthNPNMatchesFunction(t *testing.T) {
	build := func() (*MIG, []Signal) {
		m := New("npn")
		leaves := make([]Signal, 4)
		for i := range leaves {
			leaves[i] = m.AddInput(string(rune('a' + i)))
		}
		return m, leaves
	}
	// Full 4-variable cuts across a stride sample plus the corner cases.
	fns := []uint16{0x0000, 0xFFFF, 0x6996, 0x9669, 0xCAFE, 0x8000, 0xFFFE, 0xE8E8}
	for f := 0; f < 1<<16; f += 97 {
		fns = append(fns, uint16(f))
	}
	for _, f := range fns {
		m, leaves := build()
		s := m.synthNPN(nil, uint64(f), 4, leaves)
		if got := wordSim(m, s); got != f {
			t.Fatalf("synthNPN(%04x) computes %04x", f, got)
		}
	}
	// Narrow cuts: the n-variable word must be honored on its own domain.
	for n := 2; n <= 3; n++ {
		for w := uint64(0); w < 1<<(1<<uint(n)); w += 3 {
			m, leaves := build()
			s := m.synthNPN(nil, w, n, leaves[:n])
			got := uint64(wordSim(m, s)) & wordMask(n)
			if got != w {
				t.Fatalf("synthNPN(%x, n=%d) computes %x", w, n, got)
			}
		}
	}
}

// The NPN rewrite must keep functional equivalence and never grow the graph
// on real MCNC circuits.
func TestNPNRewriteEquivalenceMCNC(t *testing.T) {
	for _, bench := range []string{"b9", "count", "my_adder", "C1355", "alu4", "misex3"} {
		m := migFor(t, bench)
		out := must(m.Clone().NPNRewritePass(context.Background(), 4, 5))
		if out.Size() > m.Size() {
			t.Fatalf("%s: rewrite-npn grew the graph: %d -> %d", bench, m.Size(), out.Size())
		}
		res, err := equiv.Check(context.Background(), m.ToNetwork(), out.ToNetwork(), equiv.Options{})
		if err != nil || !res.Equivalent {
			t.Fatalf("%s: rewrite-npn broke equivalence: %v %v", bench, res, err)
		}
	}
}

// The pass must produce byte-identical graphs for every worker count.
func TestNPNRewriteParallelIdentity(t *testing.T) {
	for _, bench := range []string{"b9", "count", "C1355", "alu4"} {
		m := migFor(t, bench)
		serial := must(m.Clone().NPNRewritePass(context.Background(), 4, 5))
		want := fingerprint(serial)
		for _, jobs := range []int{2, 8} {
			par := must(m.Clone().NPNRewritePass(budget(jobs), 4, 5))
			if got := fingerprint(par); got != want {
				t.Fatalf("%s: jobs=%d differs from serial", bench, jobs)
			}
		}
	}
}

// NPNRewritePass probes on clones and must leave the input graph intact.
func TestNPNRewriteLeavesInputIntact(t *testing.T) {
	m := migFor(t, "count")
	before := fingerprint(m)
	_ = must(m.NPNRewritePass(context.Background(), 4, 5))
	if fingerprint(m) != before {
		t.Fatal("jobs=1 run mutated the input graph")
	}
	_ = must(m.NPNRewritePass(budget(4), 4, 5))
	if fingerprint(m) != before {
		t.Fatal("parallel run mutated the input graph")
	}
}

// The registered pass must run inside a scripted pipeline with per-pass
// equivalence checking.
func TestNPNRewriteScripted(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		m := migFor(t, "b9")
		p, err := ParseScript("cleanup; rewrite-npn; eliminate(3)")
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

// Out-of-range rewrite-npn arguments must be rejected at parse time as
// located script errors naming the offending value.
func TestRewriteNPNScriptArgBounds(t *testing.T) {
	cases := []struct {
		script string
		ok     bool
		want   string // substring of the error for the rejections
	}{
		{script: "rewrite-npn", ok: true},
		{script: "rewrite-npn(4)", ok: true},
		{script: "rewrite-npn(2, 1)", ok: true},
		{script: "rewrite-npn(3, 64)", ok: true},
		{script: "rewrite-npn(1)", want: "cut size 1"},
		{script: "rewrite-npn(5)", want: "cut size 5"},
		{script: "rewrite-npn(4, 0)", want: "cut budget 0"},
		{script: "rewrite-npn(4, 65)", want: "cut budget 65"},
		{script: "rewrite-npn(-2)", want: "cut size -2"},
	}
	for _, c := range cases {
		_, err := ParseScript(c.script)
		if c.ok {
			if err != nil {
				t.Errorf("ParseScript(%q) = %v, want ok", c.script, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseScript(%q) succeeded, want error containing %q", c.script, c.want)
			continue
		}
		var se *opt.ScriptError
		if !errors.As(err, &se) {
			t.Errorf("ParseScript(%q): error is %T, want located *opt.ScriptError", c.script, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseScript(%q) = %v, want mention of %q", c.script, err, c.want)
		}
	}
}

// The database lookup and the rebuild of an already-hashed implementation
// must not allocate: rewriting probes run once per cut per node, and any
// per-probe garbage dominates the pass profile.
func TestSynthNPNAllocationPin(t *testing.T) {
	m := New("pin")
	leaves := make([]Signal, 4)
	for i := range leaves {
		leaves[i] = m.AddInput(string(rune('a' + i)))
	}
	const f = uint64(0xCAFE)
	_ = m.synthNPN(nil, f, 4, leaves) // warm the lookup table and the strash
	if got := testing.AllocsPerRun(200, func() { m.synthNPN(nil, f, 4, leaves) }); got != 0 {
		t.Errorf("warm synthNPN allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { npndb.Lookup(0x1234) }); got != 0 {
		t.Errorf("npndb.Lookup allocates %.1f per run, want 0", got)
	}
}

// BenchmarkRewriteNPNPass measures the full exact rewriting pass
// (enumeration, canonization, lookup, gain probing, commit).
func BenchmarkRewriteNPNPass(b *testing.B) {
	m := benchMIG(b, "b9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := must(m.NPNRewritePass(context.Background(), 4, 5)); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}
