package sat

// Miter-based combinational equivalence checking: the two networks share
// one input space, each output pair feeds an XOR difference literal, and
// the disjunction of the differences is asserted. UNSAT proves
// equivalence; a model is a concrete distinguishing input assignment.
//
// A bare miter is hopeless on arithmetic circuits (the C6288 effect: the
// solver has to re-derive every internal correspondence from scratch), so
// Miter sweeps internal points first — the classic CEC recipe (Mishchenko
// et al., ICCAD 2006). Random simulation proposes pairs of internal nodes
// that look equivalent, and each candidate is proved or refuted bottom-up,
// in b's topological order:
//
//   - Seed index. Both networks simulate sweepWords random words into one
//     reused buffer, and each node's words fold into one 64-bit hash as
//     they are simulated, complemented when the node's first simulated bit
//     is 1. The index maps a hash to the first a-gate in topological order
//     that has it. A hash collision only proposes a candidate that SAT
//     then refutes.
//   - Lazy cones. Nothing is encoded up front. One persistent solver
//     receives each node's Tseitin clauses the first time a query's cone
//     reaches it (EncodeCone), so the CNF grows with what the sweep
//     touches, never with the whole of both networks.
//   - Substitution. A proven b-node takes its a-literal in b's literal
//     table, so every later b-cone stops at the proven frontier and
//     continues in a's cone.
//   - Two-stage query, each stage with confined branching
//     (Solver.Confine). The window stage branches only on the variables
//     within sweepWindow levels of the pair, under sweepWindowBudget
//     conflicts; most equivalences close there, without touching the
//     deep cone. Only its Unsat counts: its Sat leaves the logic below
//     the window unassigned, so it is no counterexample. Anything else
//     goes to the full-cone stage, which branches on the pair's whole
//     substituted cones under sweepQueryBudget conflicts; its Sat assigns
//     that cone and is a genuine refutation.
//   - Packed patterns. Each full-cone refutation's input pattern is
//     stored as one bit of a 64-pattern simulation word, with the node
//     values of both networks under it. A later candidate is skipped iff
//     a stored pattern distinguishes it.
//
// The confinement is lifted before the output miter, which encodes only
// the output cones; outputs whose literals coincide after substitution are
// discharged without solving.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/sweep"
)

// StopOn returns a Solver.Stop callback observing ctx's cancellation, or
// nil when ctx can never be cancelled (so the solver skips polling).
func StopOn(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// MiterResult is the outcome of a miter check.
type MiterResult struct {
	// Status: Unsat = equivalent, Sat = differ. Unknown comes only with the
	// context's error, when the check was interrupted.
	Status Status
	// Inputs is the distinguishing input assignment (declaration order)
	// when Status is Sat.
	Inputs []bool
	// Conflicts is the number of conflicts the check needed.
	Conflicts int64
	// SweepConflicts and FinalConflicts split Conflicts between the
	// internal sweep and the output-miter solve, so a cost regression is
	// attributable to the phase that spent it.
	SweepConflicts int64
	FinalConflicts int64
	// Restarts is the number of solver restarts across the whole check.
	Restarts int64
	// ProvedPairs counts internal equivalences the sweep proved.
	ProvedPairs int
}

// Sweep tuning knobs. Measured on a 2-core container, on the 7
// SAT-decided pairs of migperf's mcnc-verified workload (each MCNC
// stand-in against its flow-effort-3 MIG) and on a 12000-gate mesh
// (miggen -nodes 12000) through mighty -opt flow -verify auto.
const (
	// sweepWords random 64-bit words seed the candidates. Against 8, they
	// cut clma's full-cone refutations from 94 to 30, and the index finds
	// a true a-counterpart more often: clma proves 5396 pairs, not 5304.
	sweepWords = 32
	// sweepWindow levels below the pair bound the window stage's
	// branching. On the MCNC pairs, 1 to 4 levels measured the same. On
	// the mesh's ~22.7k candidates, the window left 2312 to the full-cone
	// stage at 1 level, 939 at 2, 176 at 3 and 39 at 4, and the run took
	// ~9.2, ~5.4, ~3.9 and ~4.2 s.
	sweepWindow = 3
	// sweepWindowBudget conflicts bound the window stage. No window query
	// on those pairs needed 100; at 20, a few fell through to the
	// full-cone stage.
	sweepWindowBudget = 100
	sweepQueryBudget  = 2000 // conflicts per full-cone query
	sweepMaxCex       = 2048 // refutation patterns folded back into the signatures
)

// Miter decides whether two networks with matching interfaces are
// functionally equivalent. Inputs are matched positionally. The check
// always decides: only the sweep's single queries are bounded (by their
// stage budgets), and the output-miter solve runs until it proves or
// refutes. MiterResult reports how much each phase spent. Cancellation or
// deadline expiry interrupts the SAT search promptly (the solver polls the
// context every few hundred search steps), returning the context's error.
// The context is the only bound on the check, which is what lets a service
// deadline cut a C6288-class solve short.
func Miter(ctx context.Context, a, b *netlist.Network) (MiterResult, error) {
	if a.NumInputs() != b.NumInputs() {
		return MiterResult{}, fmt.Errorf("sat: miter input counts differ: %d vs %d", a.NumInputs(), b.NumInputs())
	}
	if a.NumOutputs() != b.NumOutputs() {
		return MiterResult{}, fmt.Errorf("sat: miter output counts differ: %d vs %d", a.NumOutputs(), b.NumOutputs())
	}
	m := newMiter(a, b)
	s := m.s
	s.Stop = StopOn(ctx)

	proved, err := m.sweep(ctx)
	if err != nil {
		return MiterResult{}, err
	}
	sweepSpent := s.Conflicts()
	done := func(st Status) MiterResult {
		return MiterResult{
			Status:         st,
			Conflicts:      s.Conflicts(),
			SweepConflicts: sweepSpent,
			FinalConflicts: s.Conflicts() - sweepSpent,
			Restarts:       s.Restarts(),
			ProvedPairs:    proved,
		}
	}
	if err := ctx.Err(); err != nil {
		return done(Unknown), err
	}

	var diffs []Lit
	for i := range a.Outputs {
		oa, err := m.sigLit(0, a.Outputs[i].Sig)
		if err != nil {
			return MiterResult{}, err
		}
		ob, err := m.sigLit(1, b.Outputs[i].Sig)
		if err != nil {
			return MiterResult{}, err
		}
		if oa == ob {
			continue // identical after substitution: discharged
		}
		d := MkLit(s.NewVar(), false)
		s.AddXorGate(d, oa, ob)
		diffs = append(diffs, d)
	}
	if len(diffs) == 0 {
		return done(Unsat), nil
	}
	if !s.AddClause(diffs...) {
		// The difference disjunction is already contradicted at level 0:
		// every output pair is forced equal.
		return done(Unsat), nil
	}
	res := done(s.Solve()) // the sweep left the solver unbounded
	if res.Status == Unknown {
		if err := ctx.Err(); err != nil {
			return res, err
		}
	}
	if res.Status == Sat {
		res.Inputs = make([]bool, len(m.ins))
		for i, l := range m.ins {
			res.Inputs[i] = s.ValueLit(l)
		}
	}
	return res, nil
}

// gateOf names the network node whose gate output a solver variable is;
// side -1 marks inputs, constants and gadget variables.
type gateOf struct {
	side int8
	node int32
}

// miter is the lazily loaded solver state of one check: side 0 is a,
// side 1 is b.
type miter struct {
	s     *Solver
	nets  [2]*netlist.Network
	lits  [2][]Lit // per node; LitUndef until a cone reaches the node
	ins   []Lit    // shared primary-input literals, declaration order
	gates []gateOf // per variable: the node it encodes, for cone walks

	enc  ConeScratch
	root [1]int
	seen sweep.Scratch[struct{}] // per variable, for cone walks
	cone []Var
}

func newMiter(a, b *netlist.Network) *miter {
	m := &miter{s: NewSolver(), nets: [2]*netlist.Network{a, b}}
	m.ins = make([]Lit, a.NumInputs())
	for i := range m.ins {
		m.ins[i] = MkLit(m.s.NewVar(), false)
	}
	for side, n := range m.nets {
		lits := make([]Lit, len(n.Nodes))
		for i := range lits {
			lits[i] = LitUndef
		}
		for k, node := range n.Inputs {
			lits[node] = m.ins[k]
		}
		m.lits[side] = lits
	}
	return m
}

// lit returns the literal of a node, encoding its cone first if needed.
func (m *miter) lit(side, node int) (Lit, error) {
	lits := m.lits[side]
	if l := lits[node]; l != LitUndef {
		return l, nil
	}
	n := m.nets[side]
	m.root[0] = node
	if err := EncodeCone(m.s, n, m.root[:], lits, &m.enc); err != nil {
		return LitUndef, err
	}
	for len(m.gates) < m.s.NumVars() {
		m.gates = append(m.gates, gateOf{side: -1})
	}
	for _, i := range m.enc.Encoded() {
		switch nd := &n.Nodes[i]; nd.Op {
		case netlist.Const0, netlist.Not, netlist.Buf:
			continue // no gate variable of its own
		case netlist.Xor, netlist.Xnor:
			if len(nd.Fanins) < 2 {
				continue
			}
		}
		m.gates[lits[i].Var()] = gateOf{side: int8(side), node: int32(i)}
	}
	return lits[node], nil
}

// sigLit is lit for a complemented-edge signal.
func (m *miter) sigLit(side int, sig netlist.Signal) (Lit, error) {
	l, err := m.lit(side, sig.Node())
	return l.NotIf(sig.Neg()), err
}

// confine restricts branching to the variables at most levels fanin steps
// below la and lb (math.MaxInt: their whole substituted fanin cones). The
// walk is breadth-first and follows each gate variable's fanins through
// the current literal tables, so at a substituted b-node it continues in
// a's cone. A whole cone includes every input it reaches, which is what makes
// a confined Sat a genuine assignment of the cone (see Solver.Confine).
func (m *miter) confine(la, lb Lit, levels int) {
	m.seen.Reset(m.s.NumVars())
	cone := m.cone[:0]
	for _, v := range [2]Var{la.Var(), lb.Var()} {
		if !m.seen.Seen(int(v)) {
			m.seen.Set(int(v), struct{}{})
			cone = append(cone, v)
		}
	}
	for lo := 0; levels > 0 && lo < len(cone); levels-- {
		hi := len(cone)
		for _, v := range cone[lo:hi] {
			g := m.gates[v]
			if g.side < 0 {
				continue
			}
			lits := m.lits[g.side]
			for _, f := range m.nets[g.side].Nodes[g.node].Fanins {
				if u := lits[f.Node()].Var(); !m.seen.Seen(int(u)) {
					m.seen.Set(int(u), struct{}{})
					cone = append(cone, u)
				}
			}
		}
		lo = hi
	}
	m.cone = cone
	m.s.Confine(cone)
}

// seedHashes simulates sweepWords random words on a and b through one
// reused buffer and folds each node's words into one 64-bit hash per
// node. The complement is folded in by the node's first simulated bit, as
// sweep.Canon does, and that bit is kept as the hash's lowest bit: a node
// and its complement share h>>1 and differ in h&1.
func seedHashes(a, b *netlist.Network) (ha, hb []uint64) {
	r := rand.New(rand.NewSource(0x5A753EED))
	row := make([]uint64, a.NumInputs())
	ha, hb = make([]uint64, len(a.Nodes)), make([]uint64, len(b.Nodes))
	var vals []uint64
	for w := 0; w < sweepWords; w++ {
		for i := range row {
			row[i] = r.Uint64()
		}
		vals = a.EvalWordInto(vals, row)
		foldWord(ha, vals, w == 0)
		vals = b.EvalWordInto(vals, row)
		foldWord(hb, vals, w == 0)
	}
	return ha, hb
}

// foldWord folds one simulated word per node into the nodes' hashes; on
// the first word it sets each node's phase bit.
func foldWord(h, vals []uint64, first bool) {
	for i, v := range vals {
		if first {
			h[i] = v & 1
		}
		neg := h[i] & 1
		x := (h[i] &^ 1) ^ v ^ -neg // the word, complemented by the phase
		// splitmix64's finalizer mixes every bit of the word into the hash.
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		h[i] = (x^x>>31)&^1 | neg
	}
}

// sweep runs simulation-guided SAT sweeping over the two networks,
// substituting every proven b-node by its a-literal. Deterministic: fixed
// simulation seed, candidates processed in b's topological order. Returns
// the number of proven pairs; an error means a node could not be encoded.
func (m *miter) sweep(ctx context.Context) (int, error) {
	s, a, b := m.s, m.nets[0], m.nets[1]
	ha, hb := seedHashes(a, b)

	isGate := func(n *netlist.Network, i int) bool {
		switch n.Nodes[i].Op {
		case netlist.Const0, netlist.Input, netlist.Buf, netlist.Not:
			return false
		}
		return true
	}
	// Index a's gate nodes by seed hash, phase bit dropped. Only the seed
	// words key the index; refutation patterns are checked by
	// pats.distinguishes.
	index := make(map[uint64]int32)
	for i := range a.Nodes {
		if !isGate(a, i) {
			continue
		}
		k := ha[i] >> 1
		if _, dup := index[k]; !dup {
			index[k] = int32(i)
		}
	}

	pats := patterns{a: a, b: b}
	proved := 0
	defer func() {
		s.Unconfine()
		s.MaxConflicts = 0
	}()
	for j := range b.Nodes {
		if ctx.Err() != nil {
			break
		}
		if !isGate(b, j) {
			continue
		}
		i, ok := index[hb[j]>>1]
		if !ok {
			continue
		}
		phase := (ha[i]^hb[j])&1 == 1 // b_j == a_i XOR phase on the seed words
		if pats.distinguishes(int(i), j, phase) {
			continue
		}
		la, err := m.lit(0, int(i))
		if err != nil {
			return proved, err
		}
		for _, f := range b.Nodes[j].Fanins {
			if _, err := m.lit(1, f.Node()); err != nil {
				return proved, err
			}
		}
		// b_j's own gate and the XOR gadget live in a clause group
		// released as soon as the candidate is decided, so their variables
		// and clauses — and every learnt clause that depends on them — are
		// recycled instead of accumulating across thousands of candidates.
		g := s.PushGroup()
		lb, err := m.lit(1, j)
		if err != nil {
			return proved, err
		}
		lb = lb.NotIf(phase)
		d := MkLit(s.NewVar(), false)
		s.AddXorGate(d, la, lb)
		s.EndGroup()
		// query decides the gadget with branching confined to levels fanin
		// steps below the pair, under budget conflicts.
		query := func(levels int, budget int64) Status {
			m.confine(la, lb, levels)
			s.MaxConflicts = budget
			return s.Solve(s.GroupLit(g), d)
		}
		status := query(sweepWindow, sweepWindowBudget)
		if status != Unsat {
			// The window's Sat is no counterexample; only the full-cone
			// stage refutes.
			status = query(math.MaxInt, sweepQueryBudget)
			if status == Sat && pats.n < sweepMaxCex {
				// Refuted: the confined model assigns the pair's cone;
				// inputs outside it read false, which is as good as any
				// value.
				pats.add(s, m.ins)
			}
		}
		s.ReleaseGroup(g)
		if status == Unsat {
			// Proven: b_j takes a_i's literal, so later cones stop here.
			m.lits[1][j] = la.NotIf(phase)
			proved++
			continue
		}
		// Not proven: the next cone that reaches b_j encodes it again,
		// outside any group.
		m.lits[1][j] = LitUndef
	}
	return proved, nil
}

// patterns stores refutation input patterns packed 64 per simulation word,
// with both networks' node values under each word.
type patterns struct {
	a, b       *netlist.Network
	n          int        // patterns stored
	rows       [][]uint64 // per word: one bit-packed word per input
	sigA, sigB [][]uint64 // per word: node values of a and b
}

// add stores the input assignment of s's model as the next pattern and
// re-simulates the word that holds it.
func (p *patterns) add(s *Solver, ins []Lit) {
	bit := uint(p.n % 64)
	if bit == 0 {
		p.rows = append(p.rows, make([]uint64, len(ins)))
		p.sigA = append(p.sigA, nil)
		p.sigB = append(p.sigB, nil)
	}
	w := len(p.rows) - 1
	row := p.rows[w]
	for i, l := range ins {
		if s.ValueLit(l) {
			row[i] |= 1 << bit
		}
	}
	p.sigA[w] = p.a.EvalWordInto(p.sigA[w], row)
	p.sigB[w] = p.b.EvalWordInto(p.sigB[w], row)
	p.n++
}

// distinguishes reports whether a stored pattern tells a_i from
// b_j XOR phase.
func (p *patterns) distinguishes(i, j int, phase bool) bool {
	for w := range p.rows {
		d := p.sigA[w][i] ^ p.sigB[w][j]
		if phase {
			d = ^d
		}
		if w == len(p.rows)-1 && p.n%64 != 0 {
			d &= 1<<uint(p.n%64) - 1
		}
		if d != 0 {
			return true
		}
	}
	return false
}
