package mig

// Exact NPN-class cut rewriting (the rewrite-npn pass).
//
// Where cut-rewrite and window-rewrite re-synthesize each cut function
// heuristically (synthW's decomposition rules), rewrite-npn looks the
// function up in the checked-in database of SAT-proven size-optimal MIG
// implementations for all 222 4-input NPN classes (internal/npndb,
// generated offline by cmd/npngen). Per cut the pass dry-probes both the
// database implementation and the heuristic one against the input graph
// plus the window's winners so far — the database entry is optimal in
// isolation, but the heuristic can win under structural sharing — and
// keeps whichever adds fewer nodes (then lower level), falling back to the
// node's default reconstruction when neither helps. Evaluation
// parallelizes over the same fanout-free-cone windows as window-rewrite,
// and the serial commit replays the recorded winners, so the output is
// byte-identical for every worker count.

import (
	"context"

	"repro/internal/npndb"
)

// expand16 replicates an n <= 4 variable word table to all 16 minterms of
// a 4-variable table (the added variables are don't-cares).
func expand16(w uint64, n int) uint16 {
	w &= wordMask(n)
	for s := 1 << uint(n); s < 16; s *= 2 {
		w |= w << uint(s)
	}
	return uint16(w)
}

// synthNPN builds the database implementation of the n-variable function w
// over the given leaf signals (n <= 4). Missing leaves are padded with
// constant 0, which is sound because every database implementation
// realizes its representative on all 16 minterms. The NPN transform
// returned by Lookup is undone structurally: implementation input Perm[i]
// receives leaf i complemented per the flip mask, and the root is
// complemented per the output flip. The gates are built in the MIG when p
// is nil, otherwise inside the dry probe p.
func (m *MIG) synthNPN(p *probe, w uint64, n int, leaves []Signal) Signal {
	e, tr := npndb.Lookup(expand16(w, n))
	var sigs [32]Signal
	sigs[0] = Const0
	for i := 0; i < 4; i++ {
		l := Const0
		if i < n {
			l = leaves[i]
		}
		sigs[1+int(tr.Perm[i])] = l.NotIf(tr.Flip&(1<<uint(i)) != 0)
	}
	for j, g := range e.Gates {
		sigs[5+j] = m.maj(p,
			sigs[g[0].Index()].NotIf(g[0].Neg()),
			sigs[g[1].Index()].NotIf(g[1].Neg()),
			sigs[g[2].Index()].NotIf(g[2].Neg()),
		)
	}
	return sigs[e.Root.Index()].NotIf(e.Root.Neg()).NotIf(tr.FlipOut)
}

// NPNRewritePass runs exact NPN-database cut rewriting with candidate
// evaluation fanned out over the context's worker budget
// (opt.WorkersCtx); k is the cut size (at most 4, the database arity) and
// maxCuts bounds the cuts kept per node. The committed result is
// byte-identical for every budget; cancellation returns the unmodified
// input graph with the context's error.
func (m *MIG) NPNRewritePass(ctx context.Context, k, maxCuts int) (*MIG, error) {
	return m.windowRewrite(ctx, k, maxCuts, true)
}
