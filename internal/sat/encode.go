package sat

// Tseitin CNF encodings of the logic gates used across the repository. Each
// helper asserts out <-> gate(ins) as a set of clauses; outputs and inputs
// are literals, so complemented edges (and NAND/NOR/XNOR flavours) encode by
// negating the literal rather than by extra clauses.
//
// The majority gate is the paper's primitive; its six clauses are the
// two-out-of-three covers:
//
//	out <-> MAJ(a, b, c):
//	  (~a | ~b | out) (~a | ~c | out) (~b | ~c | out)
//	  ( a |  b | ~out) ( a |  c | ~out) ( b |  c | ~out)

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
	"repro/internal/sweep"
)

// AddAndGate asserts out <-> AND(ins...).
func (s *Solver) AddAndGate(out Lit, ins ...Lit) {
	long := make([]Lit, 0, len(ins)+1)
	for _, in := range ins {
		s.AddClause(out.Not(), in)
		long = append(long, in.Not())
	}
	s.AddClause(append(long, out)...)
}

// AddOrGate asserts out <-> OR(ins...).
func (s *Solver) AddOrGate(out Lit, ins ...Lit) {
	long := make([]Lit, 0, len(ins)+1)
	for _, in := range ins {
		s.AddClause(out, in.Not())
		long = append(long, in)
	}
	s.AddClause(append(long, out.Not())...)
}

// AddXorGate asserts out <-> a XOR b.
func (s *Solver) AddXorGate(out, a, b Lit) {
	s.AddClause(out.Not(), a, b)
	s.AddClause(out.Not(), a.Not(), b.Not())
	s.AddClause(out, a.Not(), b)
	s.AddClause(out, a, b.Not())
}

// AddMajGate asserts out <-> MAJ(a, b, c), the MIG node function.
func (s *Solver) AddMajGate(out, a, b, c Lit) {
	s.AddClause(a.Not(), b.Not(), out)
	s.AddClause(a.Not(), c.Not(), out)
	s.AddClause(b.Not(), c.Not(), out)
	s.AddClause(a, b, out.Not())
	s.AddClause(a, c, out.Not())
	s.AddClause(b, c, out.Not())
}

// AddMuxGate asserts out <-> ITE(sel, hi, lo).
func (s *Solver) AddMuxGate(out, sel, hi, lo Lit) {
	s.AddClause(sel.Not(), hi.Not(), out)
	s.AddClause(sel.Not(), hi, out.Not())
	s.AddClause(sel, lo.Not(), out)
	s.AddClause(sel, lo, out.Not())
	// Redundant but propagation-strengthening: hi = lo forces out.
	s.AddClause(hi.Not(), lo.Not(), out)
	s.AddClause(hi, lo, out.Not())
}

// FalseLit allocates a fresh literal constrained to false.
func (s *Solver) FalseLit() Lit {
	v := s.NewVar()
	s.AddClause(MkLit(v, true))
	return MkLit(v, false)
}

// encodeOne encodes the non-input node i into lits[i]; its fanins must
// already be encoded. falseLit lazily supplies the shared constant-false
// literal.
func encodeOne(s *Solver, n *netlist.Network, i int, lits []Lit, falseLit func() Lit) error {
	nd := &n.Nodes[i]
	sig := func(x netlist.Signal) Lit { return lits[x.Node()].NotIf(x.Neg()) }
	fresh := func() Lit { return MkLit(s.NewVar(), false) }
	switch nd.Op {
	case netlist.Const0:
		lits[i] = falseLit()
	case netlist.Not:
		lits[i] = sig(nd.Fanins[0]).Not()
	case netlist.Buf:
		lits[i] = sig(nd.Fanins[0])
	case netlist.And, netlist.Nand:
		o := fresh()
		lits[i] = o.NotIf(nd.Op == netlist.Nand)
		fs := make([]Lit, len(nd.Fanins))
		for k, f := range nd.Fanins {
			fs[k] = sig(f)
		}
		s.AddAndGate(o, fs...)
	case netlist.Or, netlist.Nor:
		o := fresh()
		lits[i] = o.NotIf(nd.Op == netlist.Nor)
		fs := make([]Lit, len(nd.Fanins))
		for k, f := range nd.Fanins {
			fs[k] = sig(f)
		}
		s.AddOrGate(o, fs...)
	case netlist.Xor, netlist.Xnor:
		cur := sig(nd.Fanins[0])
		for _, f := range nd.Fanins[1:] {
			o := fresh()
			s.AddXorGate(o, cur, sig(f))
			cur = o
		}
		lits[i] = cur.NotIf(nd.Op == netlist.Xnor)
	case netlist.Maj:
		o := fresh()
		lits[i] = o
		s.AddMajGate(o, sig(nd.Fanins[0]), sig(nd.Fanins[1]), sig(nd.Fanins[2]))
	case netlist.Mux:
		o := fresh()
		lits[i] = o
		s.AddMuxGate(o, sig(nd.Fanins[0]), sig(nd.Fanins[1]), sig(nd.Fanins[2]))
	default:
		return fmt.Errorf("sat: cannot encode op %v of node %d", nd.Op, i)
	}
	return nil
}

// ConeScratch is reusable traversal state for EncodeCone: an
// epoch-stamped visited set (sweep.Scratch) plus the traversal stacks, so
// a call costs in proportion to the nodes it encodes, not to the network.
// After a call, Encoded lists the nodes that call encoded, in topological
// order. The zero value is ready; not safe for concurrent use.
type ConeScratch struct {
	seen  sweep.Scratch[struct{}]
	stack []int
	cone  []int
}

// Encoded returns the nodes the last EncodeCone call encoded, in
// topological order. The slice is reused by the next call.
func (c *ConeScratch) Encoded() []int { return c.cone }

// EncodeCone adds a Tseitin encoding of the fanin cones of the given root
// nodes to the solver. lits is the caller-owned per-node literal table
// (len(n.Nodes) entries): entries other than LitUndef are treated as
// already encoded — the traversal prunes there — and newly encoded nodes
// are filled in place. Primary-input entries must be pre-seeded by the
// caller; reaching an unseeded input is an error. Seeding an interior
// entry with another literal substitutes it: the cone stops there. That
// is how the miter sweep stops each cone at the proven frontier. With the
// outputs' nodes as roots and every input seeded, it encodes every node
// the outputs depend on.
func EncodeCone(s *Solver, n *netlist.Network, roots []int, lits []Lit, scr *ConeScratch) error {
	if len(lits) != len(n.Nodes) {
		return fmt.Errorf("sat: EncodeCone literal table has %d entries, want %d", len(lits), len(n.Nodes))
	}
	scr.seen.Reset(len(n.Nodes))
	cone := scr.cone[:0]
	stack := append(scr.stack[:0], roots...)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if scr.seen.Seen(i) || lits[i] != LitUndef {
			continue
		}
		scr.seen.Set(i, struct{}{})
		cone = append(cone, i)
		for _, f := range n.Nodes[i].Fanins {
			stack = append(stack, f.Node())
		}
	}
	sort.Ints(cone) // nodes are topologically ordered by index
	scr.cone, scr.stack = cone, stack
	var constFalse Lit = LitUndef
	falseLit := func() Lit {
		if constFalse == LitUndef {
			constFalse = s.FalseLit()
		}
		return constFalse
	}
	for _, i := range cone {
		if n.Nodes[i].Op == netlist.Input {
			return fmt.Errorf("sat: EncodeCone reached unseeded input node %d", i)
		}
		if err := encodeOne(s, n, i, lits, falseLit); err != nil {
			return err
		}
	}
	return nil
}
