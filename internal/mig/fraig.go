package mig

// Simulation-guided SAT sweeping (the classic fraig flow) over the MIG:
// random simulation partitions the live nodes into candidate equivalence
// classes, a SAT solver (internal/sat) proves or refutes each
// (representative, member) candidate on the pair's fanin cones, refutation
// counterexamples are fed back as simulation patterns refining the next
// round's classes, and proven-equivalent nodes merge through the dense
// remap rebuild — where structural hashing collapses the redirected
// fanout, so the pass can only shrink the graph.
//
// The representation-independent parts (stimulus construction, signature
// classification, the session counterexample pool) live in internal/sweep,
// shared with the AIG side. Candidate pairs are independent single-shot
// SAT problems, so they fan out over opt.ForEach workers. Each worker owns
// one long-lived solver (fraigWorkerPool) and rewinds it with Reset
// between pairs: Reset restores the exact fresh-solver logical state while
// keeping the memory, so every verdict — decisions, conflicts, models —
// is a pure function of the pair, independent of which worker solved it or
// what it solved before. That is what keeps the pass byte-identical for
// any worker count (the same guarantee window-rewrite gives) while solver
// constructions drop from one per candidate pair to one per worker.
// Carrying learnt clauses across pairs instead would make verdict models
// depend on scheduling history and break that guarantee, which is why the
// sharing stops at memory reuse.

import (
	"context"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/opt"
	"repro/internal/sat"
	"repro/internal/sweep"
)

// FraigPass runs up to rounds sweeping iterations with words 64-bit random
// simulation words (plus accumulated counterexample patterns), a conflict
// budget per SAT query, and candidate solving fanned over the context's
// worker budget (opt.WorkersCtx). The result is functionally equivalent to
// the input and never larger. Cancellation interrupts the per-pair SAT
// solves and the candidate sweep promptly, returning the unmodified input
// graph with the context's error (partial rounds are never committed, so
// the result stays byte-identical for any worker count and any
// cancellation point).
//
// When the context carries a session counterexample pool
// (sweep.ContextWithPool — pipelines install one per run), the first round
// seeds its stimulus with every pattern the session has accumulated, and
// the patterns this pass refutes are committed back on success. Both
// transfers happen here, serially, so the pool's content — like the pass
// result — is independent of the worker budget.
func (m *MIG) FraigPass(ctx context.Context, words, rounds int, queryBudget int64) (*MIG, error) {
	if words < 1 {
		words = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	pool := sweep.PoolFrom(ctx)
	cexes := pool.Snapshot(len(m.inputs))
	seeded := len(cexes)
	cur := m
	for round := 0; round < rounds; round++ {
		next, merged, newCex := cur.fraigRound(ctx, words, queryBudget, int64(round), cexes)
		if err := ctx.Err(); err != nil {
			return m, err
		}
		cexes = append(cexes, newCex...)
		if merged == 0 {
			break
		}
		cur = next
	}
	pool.Add(cexes[seeded:])
	if cur.Size() > m.Size() {
		return m, nil // cannot happen (merges only redirect fanout), kept as a guard
	}
	return cur, nil
}

// fraigRound is one simulate–classify–prove–merge iteration. It returns
// the rebuilt graph, the number of merged nodes, and the counterexample
// patterns gathered from refutations.
func (m *MIG) fraigRound(ctx context.Context, words int, budget int64, seed int64, cexes [][]bool) (*MIG, int, [][]bool) {
	r := rand.New(rand.NewSource(0xF4A160<<8 + seed))
	// Considered nodes: the constant, every primary input, and every live
	// majority node — so a majority node can merge into a constant or an
	// input, not only into another majority node.
	live := m.LiveMask()
	isMaj := func(i int) bool { return m.nodes[i].kind == kindMaj }
	// Input ordinal per PI node, for counterexample extraction.
	piOrd := make([]int32, len(m.nodes))
	for ord, n := range m.inputs {
		piOrd[n] = int32(ord)
	}
	stop := sat.StopOn(ctx)
	subRepr, subPhase, merged, newCex := sweep.Round(sweep.RoundSpec{
		NumInputs: len(m.inputs),
		NumNodes:  len(m.nodes),
		Words:     words,
		Rng:       r.Uint64,
		Eval:      m.EvalWord,
		Include:   func(i int) bool { return !isMaj(i) || live[i] },
		Mergeable: func(i int) bool { return isMaj(i) && live[i] },
		Solve:     func(p sweep.Pair) sweep.Verdict { return m.solveFraigPair(p, budget, piOrd, stop) },
		ForEach:   func(n int, fn func(int)) { opt.ForEach(ctx, n, opt.WorkersCtx(ctx), fn) },
	}, cexes)
	if merged == 0 || ctx.Err() != nil {
		return m, 0, newCex
	}

	// Dense-remap rebuild with substitution: a merged node's references
	// redirect to its representative's rebuilt signal; strashing in Maj
	// collapses the rest. Cleanup drops the cones that became dead.
	out := New(m.Name)
	remap := make([]Signal, len(m.nodes))
	remap[0] = Const0
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	for i, nd := range m.nodes {
		if nd.kind != kindMaj || !live[i] {
			continue
		}
		if r := subRepr[i]; r >= 0 {
			remap[i] = remap[r].NotIf(subPhase[i])
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = out.Maj(a, b, c)
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out.Cleanup(), merged, newCex
}

// fraigWorker is the per-worker solving state: one long-lived solver plus
// the cone traversal scratch. Pooled so the number of live instances — and
// therefore of solver constructions — is bounded by the number of
// concurrently solving workers, not by the number of candidate pairs.
type fraigWorker struct {
	s       *sat.Solver
	scr     sweep.Scratch[sat.Lit]
	stack   []int
	cone    []int
	piNodes []int
}

var fraigWorkerPool = sync.Pool{New: func() any { return &fraigWorker{s: sat.NewSolver()} }}

// solveFraigPair decides one candidate on the union of the two fanin
// cones: UNSAT proves member == repr XOR phase. The worker's solver is
// rewound with Reset, so the verdict is identical to a fresh solver's.
// stop, when non-nil, interrupts the solve (the pair is left unmerged).
func (m *MIG) solveFraigPair(p sweep.Pair, budget int64, piOrd []int32, stop func() bool) sweep.Verdict {
	w := fraigWorkerPool.Get().(*fraigWorker)
	defer fraigWorkerPool.Put(w)
	w.scr.Reset(len(m.nodes))
	scr := &w.scr

	stack := append(w.stack[:0], p.Repr, p.Member)
	cone := w.cone[:0]
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if scr.Seen(v) {
			continue
		}
		scr.Set(v, sat.LitUndef)
		cone = append(cone, v)
		if m.nodes[v].kind == kindMaj {
			for _, f := range m.nodes[v].fanin {
				stack = append(stack, f.Node())
			}
		}
	}
	sort.Ints(cone)
	w.stack, w.cone = stack, cone

	s := w.s
	s.Reset()
	s.Stop = stop
	piNodes := w.piNodes[:0]
	lit := func(x Signal) sat.Lit { return scr.Get(x.Node()).NotIf(x.Neg()) }
	for _, v := range cone {
		switch m.nodes[v].kind {
		case kindConst:
			scr.Set(v, s.FalseLit())
		case kindPI:
			scr.Set(v, sat.MkLit(s.NewVar(), false))
			piNodes = append(piNodes, v)
		case kindMaj:
			o := sat.MkLit(s.NewVar(), false)
			f := m.nodes[v].fanin
			s.AddMajGate(o, lit(f[0]), lit(f[1]), lit(f[2]))
			scr.Set(v, o)
		}
	}
	w.piNodes = piNodes
	d := sat.MkLit(s.NewVar(), false)
	s.AddXorGate(d, scr.Get(p.Repr), scr.Get(p.Member).NotIf(p.Phase))
	if !s.AddClause(d) {
		return sweep.Verdict{Proven: true} // difference contradicted at level 0
	}
	s.MaxConflicts = budget
	switch s.Solve() {
	case sat.Unsat:
		return sweep.Verdict{Proven: true}
	case sat.Sat:
		cex := make([]bool, len(m.inputs))
		for _, v := range piNodes {
			cex[piOrd[v]] = s.ValueLit(scr.Get(v))
		}
		return sweep.Verdict{Cex: cex}
	}
	return sweep.Verdict{} // budget exhausted: leave the pair unmerged
}
