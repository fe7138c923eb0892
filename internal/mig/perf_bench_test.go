package mig

// Micro-benchmarks for the data-plane hot paths: structural hashing,
// topological rebuilds, and the cut-based rewriting pass. Run with
// -benchmem / b.ReportAllocs() to track the allocation counts the
// allocation-free core is meant to eliminate.

import (
	"testing"

	"repro/internal/mcnc"
)

func benchMIG(b *testing.B, name string) *MIG {
	b.Helper()
	n, err := mcnc.Generate(name)
	if err != nil {
		b.Fatal(err)
	}
	return FromNetwork(n)
}

// BenchmarkStrashLookup measures hit-path structural hashing: every Maj call
// re-resolves an existing node.
func BenchmarkStrashLookup(b *testing.B) {
	m := benchMIG(b, "C6288")
	type triple struct{ a, bb, c Signal }
	var keys []triple
	for i := 0; i < m.NumNodes(); i++ {
		if m.IsMaj(MakeSignal(i, false)) {
			f := m.Fanins(i)
			keys = append(keys, triple{f[0], f[1], f[2]})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if s := m.Maj(k.a, k.bb, k.c); s.Node() == 0 {
			b.Fatal("lookup lost node")
		}
	}
}

// BenchmarkStrashLongChain measures the worst case of a strash chained
// off the largest fanin: one node is the largest fanin of 1024 nodes. A hit
// re-resolves one of them, walking half the chain on average; a miss is a
// key absent from the graph whose fanins are all used, so a dry probe of it
// walks the whole chain before numbering a virtual node.
func BenchmarkStrashLongChain(b *testing.B) {
	m := New("hub")
	var in []Signal
	for i := 0; i < 47; i++ {
		in = append(in, m.AddInput("x"))
	}
	hub := in[len(in)-1]
	var keys [][3]Signal
	for i := 0; i < len(in)-1 && len(keys) < 1024; i++ {
		for j := i + 1; j < len(in)-1 && len(keys) < 1024; j++ {
			keys = append(keys, [3]Signal{in[i], in[j], hub})
			m.Maj(in[i], in[j], hub)
		}
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			if s := m.Maj(k[0], k[1], k[2]); s.Node() == 0 {
				b.Fatal("lookup lost node")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		p := &m.dry
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.reset(len(m.nodes))
			k := keys[i%len(keys)]
			if s := m.dryMaj(p, k[0], k[1].Not(), k[2]); s.Node() != p.base {
				b.Fatal("miss found a node")
			}
		}
	})
}

// BenchmarkStrashBuild measures miss-path hashing: constructing a fresh MIG
// node by node (insert-heavy, includes the node slice's reservation).
func BenchmarkStrashBuild(b *testing.B) {
	src := benchMIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := src.Cleanup(); c.Size() == 0 {
			b.Fatal("empty rebuild")
		}
	}
}

// BenchmarkRebuildWith measures one identity rebuild sweep (the skeleton of
// every optimization pass).
func BenchmarkRebuildWith(b *testing.B) {
	m := benchMIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := m.rebuildWith(nil, func(out *MIG, oldIdx int, x, y, z Signal) Signal {
			return out.Maj(x, y, z)
		})
		if out.Size() == 0 {
			b.Fatal("empty rebuild")
		}
	}
}

// BenchmarkEliminatePass measures the Algorithm 1 elimination sweep,
// including the dry candidate probes (Ω.D R→L and Ψ.R).
func BenchmarkEliminatePass(b *testing.B) {
	m := benchMIG(b, "b9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.EliminatePass(3); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkPushUpPass measures one Algorithm 2 push-up sweep, whose Ω.A,
// Ψ.C and Ω.D L→R candidates are all costed by dry probes.
func BenchmarkPushUpPass(b *testing.B) {
	m := benchMIG(b, "b9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.PushUpPass(); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkReshapePass measures one reshape sweep without substitution:
// the Ψ.R relevance probes, which dry-build a replacement cone.
func BenchmarkReshapePass(b *testing.B) {
	m := benchMIG(b, "b9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.ReshapePass(3, false); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkCutSetCold measures arena-backed enumeration from scratch (the
// cache is reset every iteration).
func BenchmarkCutSetCold(b *testing.B) {
	m := benchMIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.cutCache = nil
		cuts := m.CutSet(4, 5)
		if cuts.NumNodes() != m.NumNodes() {
			b.Fatal("bad cut count")
		}
	}
}

// BenchmarkCutSetWarm measures a cache hit on an unchanged graph (the
// inter-pass case the cut cache exists for).
func BenchmarkCutSetWarm(b *testing.B) {
	m := benchMIG(b, "C6288")
	m.CutSet(4, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cuts := m.CutSet(4, 5)
		if cuts.NumNodes() != m.NumNodes() {
			b.Fatal("bad cut count")
		}
	}
}

// BenchmarkRewritePass measures the full cut-based functional rewriting pass
// (enumeration, truth tables, candidate synthesis, commit).
func BenchmarkRewritePass(b *testing.B) {
	m := benchMIG(b, "b9")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.RewritePass(); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

// benchWindowRewrite measures the window-parallel rewrite at a worker
// count; the serial/parallel pair quantifies the scaling.
func benchWindowRewrite(b *testing.B, jobs int) {
	m := benchMIG(b, "s38417")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := must(m.WindowRewritePass(budget(jobs), 4, 5)); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkWindowRewriteJobs1(b *testing.B) { benchWindowRewrite(b, 1) }
func BenchmarkWindowRewriteJobs4(b *testing.B) { benchWindowRewrite(b, 4) }
func BenchmarkWindowRewriteJobs8(b *testing.B) { benchWindowRewrite(b, 8) }
