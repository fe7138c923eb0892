package equiv

// Incremental cone-diff equivalence checking for pass pipelines.
//
// The one-shot checkers re-prove the whole network against the pipeline
// input after every pass, so verification cost scales with pipeline length
// times network size. Incremental exploits two facts about pass pipelines:
//
//  1. Equivalence is transitive. Proving step k's output against step k-1's
//     (instead of against the pipeline input) is enough — the chain closes
//     by induction — and consecutive networks are structurally close, which
//     is exactly when a miter is cheap.
//  2. Most passes leave most output cones untouched. A structural diff
//     (bottom-up hashing confirmed by exact memoized comparison — hash
//     collisions can only cause extra work, never a wrong verdict) skips
//     unchanged outputs entirely, and inside a changed cone every interior
//     node that still matches the previous generation is encoded once and
//     shared between the two sides, so the SAT instance spans only the
//     actually rewritten region.
//
// One solver lives for the whole pipeline: the shared primary-input
// variables are permanent, each step's cones and miter go into a clause
// group that is released once the step commits, and the group machinery
// recycles the variables and clauses (internal/sat). A step the cone miter
// cannot decide inside the conflict budget falls back to the full layered
// CheckCtx against the previous step, so Incremental never weakens the
// guarantee — every step is still proved equivalent, exactly or (only in
// auto mode, like before) by the simulation last resort.

import (
	"context"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sat"
)

// IncrementalStats describes how one Step was verified.
type IncrementalStats struct {
	// Method is the engine that decided the step: MethodStruct when the
	// structural diff proved every output unchanged, MethodSAT for the cone
	// miter, or the fallback engine's method.
	Method Method
	// Outputs and Changed count the network's outputs and how many of them
	// the structural diff could not discharge.
	Outputs int
	Changed int
	// Conflicts and Restarts are the SAT effort this step consumed.
	Conflicts int64
	Restarts  int64
}

// Incremental verifies a pipeline one step at a time against the previous
// step's committed network. Not safe for concurrent use; create one per
// pipeline run.
type Incremental struct {
	opts Options
	s    *sat.Solver
	ins  []sat.Lit
	prev *netlist.Network

	// Per-network bottom-up structure hashes and the memoized exact
	// comparison between prev and the current step's network.
	prevHash []uint64
	gotHash  []uint64
	eqMemo   map[uint64]bool
	cone     sat.ConeScratch
}

// NewIncremental returns a checker with the given options (the zero
// Options work; SATConflicts bounds each step's cone miter before the full
// fallback runs).
func NewIncremental(opts Options) *Incremental {
	opts.defaults()
	return &Incremental{opts: opts, eqMemo: make(map[uint64]bool)}
}

// Step proves got functionally equivalent to the previously committed
// network (ref on the first call) and commits got as the new baseline. A
// nil error means proven (or, for an undecidable instance in auto mode,
// simulation-clean — same contract as CheckCtx). The returned stats say
// which engine decided and what it cost.
func (inc *Incremental) Step(ctx context.Context, ref, got *netlist.Network) (IncrementalStats, error) {
	prev := inc.prev
	if prev == nil {
		prev = ref
	}
	st := IncrementalStats{Outputs: got.NumOutputs()}
	if prev.NumInputs() != got.NumInputs() || prev.NumOutputs() != got.NumOutputs() {
		return st, fmt.Errorf("equiv: incremental step changed the interface: %d/%d inputs, %d/%d outputs",
			prev.NumInputs(), got.NumInputs(), prev.NumOutputs(), got.NumOutputs())
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}

	inc.prevHash = structHashes(prev, inc.prevHash[:0])
	inc.gotHash = structHashes(got, inc.gotHash[:0])
	for k := range inc.eqMemo {
		delete(inc.eqMemo, k)
	}

	var changed []int
	for i := range got.Outputs {
		po, qo := prev.Outputs[i].Sig, got.Outputs[i].Sig
		if po.Neg() == qo.Neg() && inc.structEq(prev, got, po.Node(), qo.Node()) {
			continue
		}
		changed = append(changed, i)
	}
	st.Changed = len(changed)
	if len(changed) == 0 {
		st.Method = MethodStruct
		inc.prev = got
		return st, nil
	}

	res, err := inc.proveChanged(ctx, prev, got, changed, &st)
	if err != nil {
		return st, err
	}
	if !res.Equivalent {
		return st, fmt.Errorf("not equivalent (%s)", res.Detail)
	}
	st.Method = res.Method
	inc.prev = got
	return st, nil
}

// proveChanged decides the changed output cones with the persistent
// solver, falling back to the full layered check when the cone miter runs
// out of budget or cannot encode an op.
func (inc *Incremental) proveChanged(ctx context.Context, prev, got *netlist.Network, changed []int, st *IncrementalStats) (Result, error) {
	if inc.s == nil {
		inc.s = sat.NewSolver()
		inc.ins = make([]sat.Lit, prev.NumInputs())
		for i := range inc.ins {
			inc.ins[i] = sat.MkLit(inc.s.NewVar(), false)
		}
	}
	s := inc.s
	if len(inc.ins) != got.NumInputs() {
		// A different interface than the solver was built for (cannot
		// happen inside one pipeline; guard anyway): full check.
		return inc.fallback(ctx, prev, got, st)
	}
	s.Stop = sat.StopOn(ctx)
	c0, r0 := s.Conflicts(), s.Restarts()
	g := s.PushGroup()
	res, usable := inc.coneMiter(ctx, prev, got, changed, g)
	// Read the model out before the group (and its variables) is released.
	s.EndGroup()
	s.ReleaseGroup(g)
	st.Conflicts += s.Conflicts() - c0
	st.Restarts += s.Restarts() - r0
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if usable {
		res.Conflicts = s.Conflicts() - c0
		res.Restarts = s.Restarts() - r0
		return res, nil
	}
	return inc.fallback(ctx, prev, got, st)
}

// coneMiter encodes the changed cones of both generations into group g,
// sharing structurally unchanged interior nodes, and solves the difference
// miter under the group assumption. usable is false when the instance
// could not be encoded or the budget ran out.
func (inc *Incremental) coneMiter(ctx context.Context, prev, got *netlist.Network, changed []int, g sat.Group) (res Result, usable bool) {
	s := inc.s

	prevLits := makeLitTable(len(prev.Nodes))
	gotLits := makeLitTable(len(got.Nodes))
	for i, n := range prev.Inputs {
		prevLits[n] = inc.ins[i]
	}
	for i, n := range got.Inputs {
		gotLits[n] = inc.ins[i]
	}

	prevRoots := make([]int, 0, len(changed))
	gotRoots := make([]int, 0, len(changed))
	for _, o := range changed {
		prevRoots = append(prevRoots, prev.Outputs[o].Sig.Node())
		gotRoots = append(gotRoots, got.Outputs[o].Sig.Node())
	}
	if err := sat.EncodeCone(s, prev, prevRoots, prevLits, &inc.cone); err != nil {
		return Result{}, false
	}
	// Share the unchanged interior: any got node whose structure matches an
	// already encoded prev node reuses that literal, so only the rewritten
	// region gets fresh variables and clauses. Buckets key on the structure
	// hash; structEq confirms exactly before a literal is shared.
	buckets := make(map[uint64][]int32)
	for i, l := range prevLits {
		if l != sat.LitUndef {
			h := inc.prevHash[i]
			buckets[h] = append(buckets[h], int32(i))
		}
	}
	for j := range got.Nodes {
		if gotLits[j] != sat.LitUndef || got.Nodes[j].Op == netlist.Input {
			continue
		}
		for _, i := range buckets[inc.gotHash[j]] {
			if inc.structEq(prev, got, int(i), j) {
				gotLits[j] = prevLits[i]
				break
			}
		}
	}
	if err := sat.EncodeCone(s, got, gotRoots, gotLits, &inc.cone); err != nil {
		return Result{}, false
	}

	var diffs []sat.Lit
	for _, o := range changed {
		po, qo := prev.Outputs[o].Sig, got.Outputs[o].Sig
		la := prevLits[po.Node()].NotIf(po.Neg())
		lb := gotLits[qo.Node()].NotIf(qo.Neg())
		if la == lb {
			continue // shared literal: structurally equal after all
		}
		d := sat.MkLit(s.NewVar(), false)
		s.AddXorGate(d, la, lb)
		diffs = append(diffs, d)
	}
	if len(diffs) == 0 {
		return Result{Equivalent: true, Method: MethodSAT, Detail: "all changed cones shared"}, true
	}
	if !s.AddClause(diffs...) {
		return Result{Equivalent: true, Method: MethodSAT, Detail: "difference contradicted at level 0"}, true
	}
	s.MaxConflicts = inc.opts.SATConflicts
	status := s.Solve(s.GroupLit(g))
	s.MaxConflicts = 0
	switch status {
	case sat.Unsat:
		return Result{
			Equivalent: true,
			Method:     MethodSAT,
			Detail:     fmt.Sprintf("cone miter UNSAT (%d/%d outputs changed)", len(changed), got.NumOutputs()),
		}, true
	case sat.Sat:
		inBits := make([]bool, len(inc.ins))
		for i, l := range inc.ins {
			inBits[i] = s.ValueLit(l)
		}
		return Result{
			Equivalent: false,
			Method:     MethodSAT,
			Detail:     cexDetail(prev, got, inBits),
		}, true
	}
	return Result{}, false // budget exhausted or cancelled: caller decides
}

// fallback runs the full layered check of got against the previous
// generation (still sound by transitivity) when the cone miter could not
// decide the step.
func (inc *Incremental) fallback(ctx context.Context, prev, got *netlist.Network, st *IncrementalStats) (Result, error) {
	res, err := CheckCtx(ctx, prev, got, inc.opts)
	if err != nil {
		return Result{}, err
	}
	st.Conflicts += res.Conflicts
	st.Restarts += res.Restarts
	return res, nil
}

// structEq reports whether node i of a and node j of b compute identical
// functions by identical structure: same op, same fanin edges (order and
// complementation included), inputs matched by ordinal. Memoized across
// one Step; hashes prune mismatches first, so the exact recursion runs
// only on plausible pairs.
func (inc *Incremental) structEq(a, b *netlist.Network, i, j int) bool {
	if inc.prevHash[i] != inc.gotHash[j] {
		return false
	}
	key := uint64(i)<<32 | uint64(uint32(j))
	if v, ok := inc.eqMemo[key]; ok {
		return v
	}
	na, nb := &a.Nodes[i], &b.Nodes[j]
	eq := na.Op == nb.Op && len(na.Fanins) == len(nb.Fanins)
	if eq && na.Op == netlist.Input {
		eq = inputOrdinal(a, i) == inputOrdinal(b, j)
	}
	if eq {
		for k := range na.Fanins {
			fa, fb := na.Fanins[k], nb.Fanins[k]
			if fa.Neg() != fb.Neg() || !inc.structEq(a, b, fa.Node(), fb.Node()) {
				eq = false
				break
			}
		}
	}
	inc.eqMemo[key] = eq
	return eq
}

// inputOrdinal returns the declaration-order position of input node n
// (networks keep few inputs relative to nodes; linear scan is fine and
// avoids another per-step table).
func inputOrdinal(net *netlist.Network, n int) int {
	for k, idx := range net.Inputs {
		if idx == n {
			return k
		}
	}
	return -1
}

// structHashes computes a bottom-up structure hash per node: equal hashes
// for structurally equal cones across two networks (the converse does not
// hold; structEq confirms). Inputs hash by declaration ordinal so the two
// generations' input spaces align.
func structHashes(n *netlist.Network, buf []uint64) []uint64 {
	h := append(buf, make([]uint64, len(n.Nodes))...)
	ord := make(map[int]int, len(n.Inputs))
	for k, idx := range n.Inputs {
		ord[idx] = k
	}
	for i := range n.Nodes {
		nd := &n.Nodes[i]
		x := mix(uint64(nd.Op) + 0x9E3779B97F4A7C15)
		if nd.Op == netlist.Input {
			x = mix(x ^ uint64(ord[i])*0xBF58476D1CE4E5B9)
		}
		for _, f := range nd.Fanins {
			fx := h[f.Node()]
			if f.Neg() {
				fx = ^fx
			}
			x = mix(x*0x94D049BB133111EB ^ fx)
		}
		h[i] = x
	}
	return h
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// makeLitTable returns a per-node literal table of LitUndef sentinels.
func makeLitTable(n int) []sat.Lit {
	t := make([]sat.Lit, n)
	for i := range t {
		t[i] = sat.LitUndef
	}
	return t
}
