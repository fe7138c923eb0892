// Package bdd implements Reduced Ordered Binary Decision Diagrams with an
// ITE-based apply engine, and a BDS-style decomposition of BDDs back into
// multi-level logic networks (AND/OR/XOR/MUX extraction at dominator
// nodes). It is the repository's stand-in for the BDS tool used as the
// second baseline in the paper's experiments, and the BDD engine of the
// equivalence checker.
//
// The manager keeps two array tables, in the style of Brace, Rudell and
// Bryant ("Efficient implementation of a BDD package", DAC 1990):
//
//   - the unique table is a power-of-two array of bucket heads whose chains
//     run through the nodes themselves. It is exact, and it doubles (with
//     every chain re-threaded) when the node count passes the bucket count;
//   - the computed table caches ITE results direct-mapped, as long as the
//     unique table: a colliding result overwrites the slot, and the table
//     starts empty again whenever the unique table grows.
//
// The lossy computed table changes only the time a build takes. A lost
// entry makes a later ITE recompute a result whose nodes all exist already,
// and every mk on that path finds its node in the unique table. So the
// order in which nodes are allocated, every Ref, NumNodes and the point at
// which the node limit trips are those an exact cache would give.
//
// The manager enforces a node limit; building a BDD past the limit returns
// ErrLimit. The BDS baseline then keeps its windowed (per-cone)
// decomposition, and the equivalence checker's auto engine moves on to SAT.
package bdd

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/tt"
)

// Ref references a BDD node. Refs 0 and 1 are the constant leaves.
type Ref uint32

// Constant leaves.
const (
	False Ref = 0
	True  Ref = 1
)

// ErrLimit is returned when an operation would exceed the manager's node
// limit.
var ErrLimit = errors.New("bdd: node limit exceeded")

type bddNode struct {
	varIdx int32 // variable index; -1 for terminals
	lo, hi Ref
	next   Ref // next node in the same unique-table bucket; 0 ends the chain
}

// iteEntry is one computed-table slot. f == 0 marks an empty slot: iteRec
// never caches a constant f.
type iteEntry struct{ f, g, h, r Ref }

// minTable is the initial length of both tables, small because most
// managers (one per cone in windowed BDS) hold a handful of nodes.
const minTable = 64

// Manager owns the node store of a BDD forest.
type Manager struct {
	numVars int
	limit   int
	nodes   []bddNode
	// buckets holds the head of each unique-table chain, 0 for an empty
	// bucket (leaves are never hashed); its length is a power of two.
	buckets []Ref
	ite     []iteEntry // computed table, as long as buckets
	// memo and neg are DecomposeInto's scratch, indexed by Ref: a node's
	// decomposed signal and its complement.
	memo []netlist.Signal
	neg  []Ref
}

// NewManager creates a manager for numVars variables with the given node
// limit (0 means a default of 1<<22 nodes).
func NewManager(numVars, limit int) *Manager {
	if limit <= 0 {
		limit = 1 << 22
	}
	return &Manager{
		numVars: numVars,
		limit:   limit,
		nodes: []bddNode{
			{varIdx: -1}, // False
			{varIdx: -1}, // True
		},
		buckets: make([]Ref, minTable),
		ite:     make([]iteEntry, minTable),
	}
}

// Reset empties m for another build, keeping its storage and its limit.
func (m *Manager) Reset() {
	m.nodes = m.nodes[:2]
	clear(m.buckets)
	clear(m.ite)
}

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return m.numVars }

// NumNodes returns the total number of nodes allocated (including leaves).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// limitPanic is the internal panic payload for limit overflow.
type limitPanic struct{}

// catchLimit, deferred, turns the limit panic into ErrLimit.
func catchLimit(err *error) {
	if p := recover(); p != nil {
		if _, ok := p.(limitPanic); ok {
			*err = ErrLimit
			return
		}
		panic(p)
	}
}

// hash3 mixes three 32-bit words; the high half of the 64-bit sum of
// products depends on every input bit.
func hash3(a, b, c Ref) uint32 {
	return uint32((uint64(a)*0x9e3779b97f4a7c15 + uint64(b)*0xc2b2ae3d27d4eb4f + uint64(c)*0x165667b19e3779f9) >> 32)
}

// mk finds or creates the node (v, lo, hi), applying the reduction rules.
func (m *Manager) mk(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	b := hash3(Ref(v), lo, hi) & uint32(len(m.buckets)-1)
	for r := m.buckets[b]; r != 0; r = m.nodes[r].next {
		if nd := &m.nodes[r]; nd.varIdx == v && nd.lo == lo && nd.hi == hi {
			return r
		}
	}
	if len(m.nodes) >= m.limit {
		panic(limitPanic{})
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, bddNode{varIdx: v, lo: lo, hi: hi, next: m.buckets[b]})
	m.buckets[b] = r
	if len(m.nodes) > len(m.buckets) {
		m.grow()
	}
	return r
}

// grow doubles the unique table, re-threading every chain, reserves node
// storage to match, and replaces the computed table with an empty one of
// the new length.
func (m *Manager) grow() {
	m.buckets = make([]Ref, 2*len(m.buckets))
	m.nodes = slices.Grow(m.nodes, len(m.buckets)-len(m.nodes))
	m.ite = make([]iteEntry, len(m.buckets))
	mask := uint32(len(m.buckets) - 1)
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		nd := &m.nodes[r]
		b := hash3(Ref(nd.varIdx), nd.lo, nd.hi) & mask
		nd.next, m.buckets[b] = m.buckets[b], r
	}
}

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return m.mk(int32(i), False, True)
}

// topVar returns the top variable of f (numVars for terminals so they sort
// last).
func (m *Manager) topVar(f Ref) int32 {
	v := m.nodes[f].varIdx
	if v < 0 {
		return int32(m.numVars)
	}
	return v
}

func (m *Manager) cofactors(f Ref, v int32) (lo, hi Ref) {
	if m.topVar(f) == v {
		return m.nodes[f].lo, m.nodes[f].hi
	}
	return f, f
}

// iteRec computes ITE(f, g, h) recursively with caching.
func (m *Manager) iteRec(f, g, h Ref) Ref {
	// Terminal cases.
	if f == True {
		return g
	}
	if f == False {
		return h
	}
	if g == h {
		return g
	}
	if g == True && h == False {
		return f
	}
	key := hash3(f, g, h)
	if e := &m.ite[key&uint32(len(m.ite)-1)]; e.f == f && e.g == g && e.h == h {
		return e.r
	}
	v := m.topVar(f)
	if tv := m.topVar(g); tv < v {
		v = tv
	}
	if tv := m.topVar(h); tv < v {
		v = tv
	}
	f0, f1 := m.cofactors(f, v)
	g0, g1 := m.cofactors(g, v)
	h0, h1 := m.cofactors(h, v)
	lo := m.iteRec(f0, g0, h0)
	hi := m.iteRec(f1, g1, h1)
	r := m.mk(v, lo, hi)
	// The recursion may have grown the table: index it afresh.
	m.ite[key&uint32(len(m.ite)-1)] = iteEntry{f, g, h, r}
	return r
}

func (m *Manager) not(f Ref) Ref { return m.iteRec(f, False, True) }

func (m *Manager) xor(f, g Ref) Ref { return m.iteRec(f, m.not(g), g) }

func (m *Manager) maj(f, g, h Ref) Ref {
	fg := m.iteRec(f, g, False)
	fh := m.iteRec(f, h, False)
	gh := m.iteRec(g, h, False)
	return m.iteRec(fg, True, m.iteRec(fh, True, gh))
}

// guard converts the limit panic into ErrLimit.
func (m *Manager) guard(f func() Ref) (r Ref, err error) {
	defer catchLimit(&err)
	return f(), nil
}

// And computes f AND g.
func (m *Manager) And(f, g Ref) (Ref, error) {
	return m.guard(func() Ref { return m.iteRec(f, g, False) })
}

// Or computes f OR g.
func (m *Manager) Or(f, g Ref) (Ref, error) {
	return m.guard(func() Ref { return m.iteRec(f, True, g) })
}

// Not computes the complement of f.
func (m *Manager) Not(f Ref) (Ref, error) {
	return m.guard(func() Ref { return m.not(f) })
}

// Xor computes f XOR g.
func (m *Manager) Xor(f, g Ref) (Ref, error) {
	return m.guard(func() Ref { return m.xor(f, g) })
}

// Maj computes the three-input majority.
func (m *Manager) Maj(f, g, h Ref) (Ref, error) {
	return m.guard(func() Ref { return m.maj(f, g, h) })
}

// FromTT builds the BDD of a truth table (Shannon expansion from the top
// variable down). Intended for small functions (windowed decomposition).
// The cofactors are read from f's words in place: a table over variables
// 0..v with v ≥ 6 is a run of words whose halves are its two cofactors by
// v, and one over variables 0..5 is a single word.
func (m *Manager) FromTT(f tt.TT) (r Ref, err error) {
	n := f.NumVars()
	if n > m.numVars {
		return False, fmt.Errorf("bdd: FromTT over %d vars in %d-var manager", n, m.numVars)
	}
	defer catchLimit(&err)
	return m.fromTTRec(f, 0, n-1), nil
}

// fromTTRec builds the function over variables 0..top whose table starts
// at f's word w. Below six variables the word is read replicated, so the
// constants are 0 and all ones.
func (m *Manager) fromTTRec(f tt.TT, w, top int) Ref {
	for ; top >= 6; top-- {
		half := 1 << (top - 6)
		for k := w; k < w+half; k++ {
			if f.Word(k) != f.Word(k+half) {
				lo := m.fromTTRec(f, w, top-1)
				hi := m.fromTTRec(f, w+half, top-1)
				return m.mk(int32(top), lo, hi)
			}
		}
	}
	x := f.Word(w)
	for s := 1 << (top + 1); s < 64; s <<= 1 {
		x |= x << s
	}
	return m.fromWordRec(x, top)
}

// fromWordRec builds the function over variables 0..top ≤ 5 whose table is
// the replicated word x.
func (m *Manager) fromWordRec(x uint64, top int) Ref {
	switch x {
	case 0:
		return False
	case ^uint64(0):
		return True
	}
	v := top
	for (x^x>>(1<<v))&^tt.VarWord(v) == 0 {
		v-- // x is not constant, so it depends on some v ≤ top
	}
	mask, s := tt.VarWord(v), 1<<v
	lo, hi := x&^mask, x&mask
	r0 := m.fromWordRec(lo|lo<<s, v-1)
	r1 := m.fromWordRec(hi|hi>>s, v-1)
	return m.mk(int32(v), r0, r1)
}

// Eval evaluates f under the given variable assignment.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for f != False && f != True {
		nd := m.nodes[f]
		if assignment[nd.varIdx] {
			f = nd.hi
		} else {
			f = nd.lo
		}
	}
	return f == True
}

// CountNodes returns the number of distinct internal nodes reachable from
// the given roots (the shared BDD size).
func (m *Manager) CountNodes(roots []Ref) int {
	seen := make([]bool, len(m.nodes))
	var stack []Ref
	stack = append(stack, roots...)
	count := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f == False || f == True || seen[f] {
			continue
		}
		seen[f] = true
		count++
		stack = append(stack, m.nodes[f].lo, m.nodes[f].hi)
	}
	return count
}

// BuildNetwork constructs the BDDs of every output of a netlist, with the
// inputs in declaration order. It returns the manager and one root per
// output, or ErrLimit when the network blows past the node limit.
func BuildNetwork(n *netlist.Network, limit int) (*Manager, []Ref, error) {
	order := make([]int, n.NumInputs())
	for i := range order {
		order[i] = i
	}
	return BuildNetworkOrdered(n, limit, order)
}

// AddNetwork builds the BDDs of every output of n into m, which may
// already hold the diagrams of other networks over the same inputs, with
// the inputs in declaration order. The build may add at most limit nodes
// (0 means 1<<22) to those m holds; nodes it shares with earlier builds
// count once. It returns one root per output, or ErrLimit. Within one
// manager equal functions are equal Refs, so networks built into it
// compare output by output.
func (m *Manager) AddNetwork(n *netlist.Network, limit int) ([]Ref, error) {
	if n.NumInputs() != m.numVars {
		return nil, fmt.Errorf("bdd: network has %d inputs, manager %d variables", n.NumInputs(), m.numVars)
	}
	if limit <= 0 {
		limit = 1 << 22
	}
	m.limit = len(m.nodes) + limit
	level := make([]int, m.numVars)
	for i := range level {
		level[i] = i
	}
	return m.build(n, level, make([]Ref, len(n.Nodes)))
}

// build constructs the BDD of every output of n in m, reading input i at
// level level[i]; vals is a work buffer with one entry per network node. It
// returns one root per output, or ErrLimit, leaving in m the nodes
// allocated until the limit tripped.
func (m *Manager) build(n *netlist.Network, level []int, vals []Ref) (roots []Ref, err error) {
	defer catchLimit(&err)
	get := func(s netlist.Signal) Ref {
		if s.Neg() {
			return m.not(vals[s.Node()])
		}
		return vals[s.Node()]
	}
	inIdx := 0
	for i, nd := range n.Nodes {
		var v Ref
		switch nd.Op {
		case netlist.Const0:
			v = False
		case netlist.Input:
			v = m.Var(level[inIdx])
			inIdx++
		case netlist.Not:
			v = m.not(get(nd.Fanins[0]))
		case netlist.Buf:
			v = get(nd.Fanins[0])
		case netlist.And, netlist.Nand:
			v = True
			for _, f := range nd.Fanins {
				v = m.iteRec(v, get(f), False)
			}
		case netlist.Or, netlist.Nor:
			v = False
			for _, f := range nd.Fanins {
				v = m.iteRec(v, True, get(f))
			}
		case netlist.Xor, netlist.Xnor:
			v = False
			for _, f := range nd.Fanins {
				v = m.xor(v, get(f))
			}
		case netlist.Maj:
			v = m.maj(get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2]))
		case netlist.Mux:
			v = m.iteRec(get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2]))
		}
		switch nd.Op {
		case netlist.Nand, netlist.Nor, netlist.Xnor:
			v = m.not(v)
		}
		vals[i] = v
	}
	roots = make([]Ref, len(n.Outputs))
	for i, o := range n.Outputs {
		roots[i] = get(o.Sig)
	}
	return roots, nil
}
