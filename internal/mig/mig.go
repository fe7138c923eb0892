// Package mig implements the Majority-Inverter Graph of Amarù, Gaillardon
// and De Micheli (DAC 2014): a homogeneous logic network whose nodes all
// compute the three-input majority function M(a, b, c) = ab + ac + bc and
// whose edges carry an optional complement attribute.
//
// The package provides
//
//   - the MIG data structure with inverter-aware structural hashing,
//   - the Ω axioms (commutativity, majority, associativity, distributivity,
//     inverter propagation) and the derived Ψ rules (relevance,
//     complementary associativity, substitution) as local DAG rewrites,
//   - the size, depth and switching-activity optimizers of the paper's
//     Section IV (Algorithms 1 and 2), and
//   - conversions to and from the generic netlist IR.
//
// Signals follow the usual literal encoding: node-index<<1 | complement.
// Node 0 is the constant 0, so Const0 = 0 and Const1 = 1.
package mig

import (
	"fmt"
	"slices"

	"repro/internal/cut"
	"repro/internal/netlist"
)

// Signal references a node output, possibly complemented.
type Signal uint32

// MakeSignal builds a signal from a node index and complement flag.
func MakeSignal(node int, neg bool) Signal {
	s := Signal(node << 1)
	if neg {
		s |= 1
	}
	return s
}

// Node returns the node index.
func (s Signal) Node() int { return int(s >> 1) }

// Neg reports whether the signal is complemented.
func (s Signal) Neg() bool { return s&1 != 0 }

// Not returns the complemented signal.
func (s Signal) Not() Signal { return s ^ 1 }

// NotIf complements the signal when c is true.
func (s Signal) NotIf(c bool) Signal {
	if c {
		return s ^ 1
	}
	return s
}

// Constant signals.
const (
	Const0 Signal = 0
	Const1 Signal = 1
)

// nodeKind distinguishes the three node flavours.
type nodeKind uint8

const (
	kindConst nodeKind = iota
	kindPI
	kindMaj
)

// node is a single MIG node. Fanins are only meaningful for majority nodes.
//
// The structural hash (strash) is threaded through the nodes: head is the
// newest majority node whose largest canonical fanin (fanin[2]) is this
// node, and next is the next-older node of the chain this majority node is
// on; 0 ends a chain (node 0 is the constant, never a majority node). A
// lookup walks the chain of the key's largest fanin, whose node Maj reads
// anyway for its level and used flag, so there is no table to size, grow
// or copy.
//
// used is set once the node is a fanin of a majority node that Maj built;
// nothing clears it. Maj is the only creator of majority nodes, no node is
// ever taken back and Clone copies nodes, so a key with an unused fanin
// cannot be in the strash and its lookup is skipped.
type node struct {
	fanin      [3]Signal
	level      int32
	head, next int32
	kind       nodeKind
	used       bool
}

// Output is a named primary output.
type Output struct {
	Name string
	Sig  Signal
}

// MIG is a majority-inverter graph.
type MIG struct {
	Name    string
	nodes   []node
	inputs  []int // node indices of PIs in declaration order
	names   []string
	Outputs []Output
	// scr is reusable traversal scratch (epoch-stamped memos); see
	// scratch.go. Never shared across goroutines.
	scr scratch
	// cutCache lazily holds the k-feasible cuts of this graph; it is
	// extended incrementally as nodes are appended (see cuts.go).
	cutCache *cut.Cache
	// wscr memoizes the word-level cone walks that compute cut functions
	// of at most six leaves (cutFuncW, synth6.go); it is the MIG's only
	// cut-function memo.
	wscr wordScratch
	// memo is the reusable memo of one synthesis call (synth6.go), keyed
	// by truth-table word.
	memo synthMemo
	// dry is the reusable state of the lookup-only candidate probes
	// (probe, opt.go).
	dry probe
}

// New returns an empty MIG containing only the constant node.
func New(name string) *MIG {
	return &MIG{
		Name:  name,
		nodes: []node{{kind: kindConst}},
	}
}

// AddInput appends a primary input and returns its signal.
func (m *MIG) AddInput(name string) Signal {
	idx := len(m.nodes)
	m.nodes = append(m.nodes, node{kind: kindPI})
	m.inputs = append(m.inputs, idx)
	m.names = append(m.names, name)
	return MakeSignal(idx, false)
}

// AddOutput registers a named primary output.
func (m *MIG) AddOutput(name string, s Signal) {
	m.Outputs = append(m.Outputs, Output{Name: name, Sig: s})
}

// NumInputs returns the number of primary inputs.
func (m *MIG) NumInputs() int { return len(m.inputs) }

// NumOutputs returns the number of primary outputs.
func (m *MIG) NumOutputs() int { return len(m.Outputs) }

// Input returns the signal of the i-th primary input.
func (m *MIG) Input(i int) Signal { return MakeSignal(m.inputs[i], false) }

// InputName returns the name of the i-th primary input.
func (m *MIG) InputName(i int) string { return m.names[i] }

// NumNodes returns the total number of nodes, including the constant and the
// primary inputs.
func (m *MIG) NumNodes() int { return len(m.nodes) }

// IsMaj reports whether the node of s is a majority node.
func (m *MIG) IsMaj(s Signal) bool { return m.nodes[s.Node()].kind == kindMaj }

// IsConst reports whether the node of s is the constant node.
func (m *MIG) IsConst(s Signal) bool { return s.Node() == 0 }

// Fanins returns the three fanin signals of a majority node.
func (m *MIG) Fanins(n int) [3]Signal { return m.nodes[n].fanin }

// Level returns the logic level of the node of s (inverters are free).
func (m *MIG) Level(s Signal) int { return int(m.nodes[s.Node()].level) }

// Maj creates (or reuses) a majority node M(a, b, c), canonicalized by
// majNorm before hashing.
func (m *MIG) Maj(a, b, c Signal) Signal {
	a, b, c, outNeg, ok := majNorm(a, b, c)
	if !ok {
		return a
	}
	if m.mayExist(a, b, c) {
		if idx := m.lookup(a, b, c); idx != 0 {
			return MakeSignal(int(idx), outNeg)
		}
	}
	cn := c.Node()
	lv := max(m.nodes[a.Node()].level, m.nodes[b.Node()].level, m.nodes[cn].level)
	m.nodes[a.Node()].used = true
	m.nodes[b.Node()].used = true
	m.nodes[cn].used = true
	idx := len(m.nodes)
	m.nodes = append(m.nodes, node{fanin: [3]Signal{a, b, c}, level: lv + 1, next: m.nodes[cn].head, kind: kindMaj})
	m.nodes[cn].head = int32(idx) // after the append, which may move nodes
	return MakeSignal(idx, outNeg)
}

// majNorm canonicalizes M(a, b, c) for structural hashing:
//
//   - the trivial majority rules Ω.M are applied: M(x, x, z) = x and
//     M(x, x', z) = z (this also covers constant pairs, since Const1 is the
//     complement of Const0); ok is then false and the node is x;
//   - if two or more fanins are complemented, inverter propagation Ω.I
//     rewrites the node so at most one fanin is complemented, complementing
//     the output instead (outNeg);
//   - fanins are sorted (Ω.C makes order irrelevant).
func majNorm(a, b, c Signal) (x, y, z Signal, outNeg, ok bool) {
	// Ω.M: pairs of equal or complementary fanins.
	switch {
	case a == b:
		return a, 0, 0, false, false
	case a == b.Not():
		return c, 0, 0, false, false
	case a == c:
		return a, 0, 0, false, false
	case a == c.Not():
		return b, 0, 0, false, false
	case b == c:
		return b, 0, 0, false, false
	case b == c.Not():
		return a, 0, 0, false, false
	}

	// Ω.I normalization: keep at most one complemented fanin.
	if (a&1)+(b&1)+(c&1) >= 2 {
		a, b, c = a.Not(), b.Not(), c.Not()
		outNeg = true
	}

	// Ω.C: sort fanins.
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c, outNeg, true
}

// mayExist reports whether the canonical key (a, b, c) can be in the
// strash: every fanin of a hashed node is used.
func (m *MIG) mayExist(a, b, c Signal) bool {
	return m.nodes[a.Node()].used && m.nodes[b.Node()].used && m.nodes[c.Node()].used
}

// lookup returns the majority node with the canonical fanins (a, b, c), or
// 0 when there is none, by walking the strash chain of c's node.
func (m *MIG) lookup(a, b, c Signal) int32 {
	for i := m.nodes[c.Node()].head; i != 0; i = m.nodes[i].next {
		if m.nodes[i].fanin == [3]Signal{a, b, c} {
			return i
		}
	}
	return 0
}

// And returns a AND b, built as M(a, b, 0).
func (m *MIG) And(a, b Signal) Signal { return m.and(nil, a, b) }

// Or returns a OR b, built as M(a, b, 1).
func (m *MIG) Or(a, b Signal) Signal { return m.or(nil, a, b) }

// Xor returns a XOR b (three majority nodes).
func (m *MIG) Xor(a, b Signal) Signal { return m.xor(nil, a, b) }

// and, or and xor are And, Or and Xor built through maj: for real when p
// is nil, otherwise inside the dry probe p.
func (m *MIG) and(p *probe, a, b Signal) Signal { return m.maj(p, a, b, Const0) }

func (m *MIG) or(p *probe, a, b Signal) Signal { return m.maj(p, a, b, Const1) }

func (m *MIG) xor(p *probe, a, b Signal) Signal {
	// a ⊕ b = (a + b)·(a·b)' = M(M(a,b,1), M(a,b,0)', 0)
	return m.and(p, m.or(p, a, b), m.and(p, a, b).Not())
}

// Mux returns ITE(sel, hi, lo).
func (m *MIG) Mux(sel, hi, lo Signal) Signal {
	return m.Or(m.And(sel, hi), m.And(sel.Not(), lo))
}

// majView exposes the fanins of s as a majority expression, pushing an
// output complement onto the fanins via Ω.I. ok is false when s is not a
// majority node.
func (m *MIG) majView(s Signal) (a, b, c Signal, ok bool) {
	nd := &m.nodes[s.Node()]
	if nd.kind != kindMaj {
		return 0, 0, 0, false
	}
	a, b, c = nd.fanin[0], nd.fanin[1], nd.fanin[2]
	if s.Neg() {
		a, b, c = a.Not(), b.Not(), c.Not()
	}
	return a, b, c, true
}

// LiveMask marks nodes in the transitive fanin of the outputs.
func (m *MIG) LiveMask() []bool {
	return m.liveInto(make([]bool, len(m.nodes)))
}

// liveInto fills live (length len(nodes), all false) with the live mask and
// returns it; internal callers pass pooled slices. Nodes are appended after
// their fanins, so one scan from the newest node down marks every fanin of
// a live node before the scan reaches it.
func (m *MIG) liveInto(live []bool) []bool {
	for _, o := range m.Outputs {
		live[o.Sig.Node()] = true
	}
	for i := len(m.nodes) - 1; i > 0; i-- {
		if nd := &m.nodes[i]; live[i] && nd.kind == kindMaj {
			live[nd.fanin[0].Node()] = true
			live[nd.fanin[1].Node()] = true
			live[nd.fanin[2].Node()] = true
		}
	}
	return live
}

// Size returns the number of live majority nodes (the paper's size metric).
func (m *MIG) Size() int {
	lp := takeBools(len(m.nodes))
	live := *lp
	m.liveInto(live)
	c := 0
	for i, nd := range m.nodes {
		if live[i] && nd.kind == kindMaj {
			c++
		}
	}
	releaseBools(lp)
	return c
}

// Depth returns the number of majority levels on the longest path from any
// input to any output (the paper's depth metric; inverters are free).
func (m *MIG) Depth() int {
	d := 0
	for _, o := range m.Outputs {
		if l := m.Level(o.Sig); l > d {
			d = l
		}
	}
	return d
}

// EvalWord simulates the MIG on one 64-bit word per input.
func (m *MIG) EvalWord(inputs []uint64) []uint64 {
	if len(inputs) != len(m.inputs) {
		panic(fmt.Sprintf("mig: EvalWord got %d inputs, want %d", len(inputs), len(m.inputs)))
	}
	vals := make([]uint64, len(m.nodes))
	get := func(s Signal) uint64 {
		v := vals[s.Node()]
		if s.Neg() {
			return ^v
		}
		return v
	}
	inIdx := 0
	for i := range m.nodes {
		switch m.nodes[i].kind {
		case kindConst:
			vals[i] = 0
		case kindPI:
			vals[i] = inputs[inIdx]
			inIdx++
		case kindMaj:
			a := get(m.nodes[i].fanin[0])
			b := get(m.nodes[i].fanin[1])
			c := get(m.nodes[i].fanin[2])
			vals[i] = (a & b) | (a & c) | (b & c)
		}
	}
	return vals
}

// OutputWords simulates and returns one word per output.
func (m *MIG) OutputWords(inputs []uint64) []uint64 {
	vals := m.EvalWord(inputs)
	out := make([]uint64, len(m.Outputs))
	for i, o := range m.Outputs {
		v := vals[o.Sig.Node()]
		if o.Sig.Neg() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// Clone returns a deep copy of the MIG. The structural hash lives in the
// nodes, so copying them copies it; scratch memory and the cut cache are
// not carried over.
func (m *MIG) Clone() *MIG {
	return &MIG{
		Name:    m.Name,
		nodes:   append([]node(nil), m.nodes...),
		inputs:  append([]int(nil), m.inputs...),
		names:   append([]string(nil), m.names...),
		Outputs: append([]Output(nil), m.Outputs...),
	}
}

// Cleanup rebuilds the MIG dropping dead nodes. Returns the compacted MIG.
func (m *MIG) Cleanup() *MIG {
	return m.rebuildWith(nil, func(out *MIG, _ int, a, b, c Signal) Signal { return out.Maj(a, b, c) })
}

// FanoutCounts returns, for every node, the number of live references to it
// (from live majority nodes and primary outputs).
func (m *MIG) FanoutCounts() []int {
	lp := takeBools(len(m.nodes))
	defer releaseBools(lp)
	return m.fanoutsInto(make([]int, len(m.nodes)), m.liveInto(*lp))
}

// fanoutsInto fills refs (length len(nodes), all zero) with FanoutCounts
// under the live mask live, and returns it.
func (m *MIG) fanoutsInto(refs []int, live []bool) []int {
	for i, nd := range m.nodes {
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		for _, f := range nd.fanin {
			refs[f.Node()]++
		}
	}
	for _, o := range m.Outputs {
		refs[o.Sig.Node()]++
	}
	return refs
}

// Stats returns a one-line summary.
func (m *MIG) Stats() string {
	return fmt.Sprintf("%s: i/o=%d/%d size=%d depth=%d", m.Name, len(m.inputs), len(m.Outputs), m.Size(), m.Depth())
}

// FromNetwork converts a generic netlist into an MIG. Multi-input gates are
// decomposed into balanced trees of two-input operations to keep depth low.
func FromNetwork(n *netlist.Network) *MIG {
	m := New(n.Name)
	m.nodes = slices.Grow(m.nodes, len(n.Nodes))
	remap := make([]Signal, len(n.Nodes))
	ms := func(s netlist.Signal) Signal { return remap[s.Node()].NotIf(s.Neg()) }

	// reduce combines a gate's fanins with op as a balanced tree, pairing
	// neighbours level by level in one buffer that every gate reuses.
	var buf []Signal
	reduce := func(fs []netlist.Signal, op func(x, y Signal) Signal) Signal {
		sigs := buf[:0]
		for _, f := range fs {
			sigs = append(sigs, ms(f))
		}
		buf = sigs
		for len(sigs) > 1 {
			k := 0
			for i := 0; i+1 < len(sigs); i += 2 {
				sigs[k] = op(sigs[i], sigs[i+1])
				k++
			}
			if len(sigs)%2 == 1 {
				sigs[k] = sigs[len(sigs)-1]
				k++
			}
			sigs = sigs[:k]
		}
		return sigs[0]
	}

	inIdx := 0
	for i, nd := range n.Nodes {
		switch nd.Op {
		case netlist.Const0:
			remap[i] = Const0
		case netlist.Input:
			name := nd.Name
			if name == "" {
				name = fmt.Sprintf("x%d", inIdx)
			}
			remap[i] = m.AddInput(name)
			inIdx++
		case netlist.Not:
			remap[i] = ms(nd.Fanins[0]).Not()
		case netlist.Buf:
			remap[i] = ms(nd.Fanins[0])
		case netlist.And, netlist.Nand:
			v := reduce(nd.Fanins, m.And)
			remap[i] = v.NotIf(nd.Op == netlist.Nand)
		case netlist.Or, netlist.Nor:
			v := reduce(nd.Fanins, m.Or)
			remap[i] = v.NotIf(nd.Op == netlist.Nor)
		case netlist.Xor, netlist.Xnor:
			v := reduce(nd.Fanins, m.Xor)
			remap[i] = v.NotIf(nd.Op == netlist.Xnor)
		case netlist.Maj:
			remap[i] = m.Maj(ms(nd.Fanins[0]), ms(nd.Fanins[1]), ms(nd.Fanins[2]))
		case netlist.Mux:
			remap[i] = m.Mux(ms(nd.Fanins[0]), ms(nd.Fanins[1]), ms(nd.Fanins[2]))
		default:
			panic(fmt.Sprintf("mig: FromNetwork unsupported op %v", nd.Op))
		}
	}
	for _, o := range n.Outputs {
		m.AddOutput(o.Name, ms(o.Sig))
	}
	return m
}

// ToNetwork converts the MIG into the generic netlist IR (majority nodes
// become netlist.Maj gates; complement attributes are preserved on edges).
func (m *MIG) ToNetwork() *netlist.Network {
	n := netlist.New(m.Name)
	live := m.LiveMask()
	gates := 0
	for i := range m.nodes {
		if live[i] && m.nodes[i].kind == kindMaj {
			gates++
		}
	}
	n.Grow(len(m.inputs), gates, 3*gates, len(m.Outputs))
	remap := make([]netlist.Signal, len(m.nodes))
	for idx, in := range m.inputs {
		remap[in] = n.AddInput(m.names[idx])
	}
	for i, nd := range m.nodes {
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = n.AddGate(netlist.Maj, a, b, c)
	}
	for _, o := range m.Outputs {
		n.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return n
}

// InputNames returns the primary input names in declaration order.
func (m *MIG) InputNames() []string {
	return append([]string(nil), m.names...)
}
