package aig

// Simulation-guided SAT sweeping over the AIG, mirroring the MIG side
// (internal/mig/fraig.go) on the shared internal/sweep core: random
// simulation partitions the live nodes into candidate equivalence classes,
// each (representative, member) candidate is proved or refuted by SAT on
// the pair's fanin cones, refutation counterexamples refine the next
// round's classes, and proven-equivalent nodes merge through the dense
// remap rebuild. Candidate pairs fan out over opt.ForEach workers, each
// owning one long-lived solver rewound with Reset between pairs (see the
// MIG side for why Reset rather than state carry-over is what keeps the
// pass byte-identical for any worker count); the session counterexample
// pool seeds the first round and collects this pass's refutations. The
// pass is deterministic for any worker count and never increases size.

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
// worker budget (opt.WorkersCtx). As on the MIG side, cancellation
// interrupts the SAT queries promptly and returns the unmodified input
// with the context's error; partial rounds are never committed.
func (a *AIG) FraigPass(ctx context.Context, words, rounds int, queryBudget int64) (*AIG, error) {
	if words < 1 {
		words = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	pool := sweep.PoolFrom(ctx)
	cexes := pool.Snapshot(len(a.inputs))
	seeded := len(cexes)
	cur := a
	for round := 0; round < rounds; round++ {
		next, merged, newCex := cur.fraigRound(ctx, words, queryBudget, int64(round), cexes)
		if err := ctx.Err(); err != nil {
			return a, err
		}
		cexes = append(cexes, newCex...)
		if merged == 0 {
			break
		}
		cur = next
	}
	pool.Add(cexes[seeded:])
	if cur.Size() > a.Size() {
		return a, nil
	}
	return cur, nil
}

func (a *AIG) fraigRound(ctx context.Context, words int, budget int64, seed int64, cexes [][]bool) (*AIG, int, [][]bool) {
	r := rand.New(rand.NewSource(0xF4A161<<8 + seed))
	live := a.LiveMask()
	isAnd := func(i int) bool { return a.nodes[i].kind == kindAnd }
	piOrd := make([]int32, len(a.nodes))
	for ord, n := range a.inputs {
		piOrd[n] = int32(ord)
	}
	stop := sat.StopOn(ctx)
	subRepr, subPhase, merged, newCex := sweep.Round(sweep.RoundSpec{
		NumInputs: len(a.inputs),
		NumNodes:  len(a.nodes),
		Words:     words,
		Rng:       r.Uint64,
		Eval:      a.EvalWord,
		Include:   func(i int) bool { return !isAnd(i) || live[i] },
		Mergeable: func(i int) bool { return isAnd(i) && live[i] },
		Solve:     func(p sweep.Pair) sweep.Verdict { return a.solveFraigPair(p, budget, piOrd, stop) },
		ForEach:   func(n int, fn func(int)) { opt.ForEach(ctx, n, opt.WorkersCtx(ctx), fn) },
	}, cexes)
	if merged == 0 || ctx.Err() != nil {
		return a, 0, newCex
	}

	out := New(a.Name)
	remap := make([]Signal, len(a.nodes))
	remap[0] = Const0
	for idx, in := range a.inputs {
		remap[in] = out.AddInput(a.names[idx])
	}
	for i, nd := range a.nodes {
		if nd.kind != kindAnd || !live[i] {
			continue
		}
		if r := subRepr[i]; r >= 0 {
			remap[i] = remap[r].NotIf(subPhase[i])
			continue
		}
		x := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		y := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		remap[i] = out.And(x, y)
	}
	for _, o := range a.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out.Cleanup(), merged, newCex
}

// fraigWorker is the per-worker solving state (see the MIG side): one
// long-lived solver plus the cone traversal scratch, pooled so solver
// constructions are bounded by the worker count, not the pair count.
type fraigWorker struct {
	s       *sat.Solver
	scr     sweep.Scratch[sat.Lit]
	stack   []int
	cone    []int
	piNodes []int
}

var fraigWorkerPool = sync.Pool{New: func() any { return &fraigWorker{s: sat.NewSolver()} }}

func (a *AIG) solveFraigPair(p sweep.Pair, budget int64, piOrd []int32, stop func() bool) sweep.Verdict {
	w := fraigWorkerPool.Get().(*fraigWorker)
	defer fraigWorkerPool.Put(w)
	w.scr.Reset(len(a.nodes))
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
		if a.nodes[v].kind == kindAnd {
			stack = append(stack, a.nodes[v].fanin[0].Node(), a.nodes[v].fanin[1].Node())
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
		switch a.nodes[v].kind {
		case kindConst:
			scr.Set(v, s.FalseLit())
		case kindPI:
			scr.Set(v, sat.MkLit(s.NewVar(), false))
			piNodes = append(piNodes, v)
		case kindAnd:
			o := sat.MkLit(s.NewVar(), false)
			f := a.nodes[v].fanin
			s.AddAndGate(o, lit(f[0]), lit(f[1]))
			scr.Set(v, o)
		}
	}
	w.piNodes = piNodes
	d := sat.MkLit(s.NewVar(), false)
	s.AddXorGate(d, scr.Get(p.Repr), scr.Get(p.Member).NotIf(p.Phase))
	if !s.AddClause(d) {
		return sweep.Verdict{Proven: true}
	}
	s.MaxConflicts = budget
	switch s.Solve() {
	case sat.Unsat:
		return sweep.Verdict{Proven: true}
	case sat.Sat:
		cex := make([]bool, len(a.inputs))
		for _, v := range piNodes {
			cex[piOrd[v]] = s.ValueLit(scr.Get(v))
		}
		return sweep.Verdict{Cex: cex}
	}
	return sweep.Verdict{}
}
