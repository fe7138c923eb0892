// Package netlist provides a generic gate-level intermediate representation
// shared by the benchmark generators, the Verilog/BLIF readers and writers,
// and the MIG/AIG/BDD converters. A network is a DAG of multi-input gates
// with complemented edges; nodes are stored in topological order by
// construction (a gate may only reference already-created signals).
package netlist

import (
	"fmt"
	"slices"
	"sort"
)

// Op identifies the function computed by a node.
type Op uint8

// Supported node operations. Const0 and Input take no fanins; Not/Buf take
// one; Mux takes three (sel, hi, lo); Maj takes three; the remaining gates
// take two or more fanins.
const (
	Const0 Op = iota
	Input
	And
	Or
	Xor
	Xnor
	Nand
	Nor
	Not
	Buf
	Maj
	Mux
)

var opNames = [...]string{
	Const0: "const0", Input: "input", And: "and", Or: "or", Xor: "xor",
	Xnor: "xnor", Nand: "nand", Nor: "nor", Not: "not", Buf: "buf",
	Maj: "maj", Mux: "mux",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Signal is a reference to a node output with an optional complement:
// node-index<<1 | complement-bit.
type Signal uint32

// MakeSignal builds a signal from a node index and complement flag.
func MakeSignal(node int, neg bool) Signal {
	s := Signal(node << 1)
	if neg {
		s |= 1
	}
	return s
}

// Node returns the node index of the signal.
func (s Signal) Node() int { return int(s >> 1) }

// Neg reports whether the signal is complemented.
func (s Signal) Neg() bool { return s&1 != 0 }

// Not returns the complemented signal.
func (s Signal) Not() Signal { return s ^ 1 }

// NotIf returns the signal complemented when c is true.
func (s Signal) NotIf(c bool) Signal {
	if c {
		return s ^ 1
	}
	return s
}

// Convenience constants: node 0 is always Const0.
const (
	SigConst0 Signal = 0
	SigConst1 Signal = 1
)

// Node is a single gate.
type Node struct {
	Op     Op
	Fanins []Signal
	Name   string // input/output name when relevant; may be empty
}

// Output is a named primary output.
type Output struct {
	Name string
	Sig  Signal
}

// Network is a combinational logic network.
type Network struct {
	Name    string
	Nodes   []Node
	Inputs  []int // node indices of primary inputs, in declaration order
	Outputs []Output

	// arena is the chunk AddGate copies fanins into, filled up to its
	// length. Each node gets a capped subslice of a chunk, so appending to
	// one node's fanins reallocates instead of overwriting its neighbour's.
	arena []Signal
}

// Arena chunks start small, so tiny networks stay tiny, and double up to
// maxArenaChunk signals.
const (
	minArenaChunk = 64
	maxArenaChunk = 1 << 16
)

// New creates an empty network containing only the constant-0 node.
func New(name string) *Network {
	return &Network{
		Name:  name,
		Nodes: []Node{{Op: Const0}},
	}
}

// NumNodes returns the total node count including constants and inputs.
func (n *Network) NumNodes() int { return len(n.Nodes) }

// Clone returns a deep copy of the network (fanin slices included).
func (n *Network) Clone() *Network {
	fanins := 0
	for i := range n.Nodes {
		fanins += len(n.Nodes[i].Fanins)
	}
	out := &Network{
		Name:    n.Name,
		Nodes:   make([]Node, len(n.Nodes)),
		Inputs:  append([]int(nil), n.Inputs...),
		Outputs: append([]Output(nil), n.Outputs...),
		arena:   make([]Signal, 0, fanins),
	}
	copy(out.Nodes, n.Nodes)
	for i := range out.Nodes {
		out.Nodes[i].Fanins = out.alloc(n.Nodes[i].Fanins)
	}
	return out
}

// Grow reserves room for inputs more inputs, gates more gates over
// fanins fanin signals in all, and outputs more outputs, so code that
// knows the final size of a network appends without regrowing.
func (n *Network) Grow(inputs, gates, fanins, outputs int) {
	n.Nodes = slices.Grow(n.Nodes, inputs+gates)
	n.Inputs = slices.Grow(n.Inputs, inputs)
	n.Outputs = slices.Grow(n.Outputs, outputs)
	if cap(n.arena)-len(n.arena) < fanins {
		n.arena = make([]Signal, 0, fanins)
	}
}

// alloc copies fs into the arena and returns the copy, capped at its
// length. A nil or empty fs yields nil.
func (n *Network) alloc(fs []Signal) []Signal {
	if len(fs) == 0 {
		return nil
	}
	if cap(n.arena)-len(n.arena) < len(fs) {
		size := min(max(2*cap(n.arena), minArenaChunk), maxArenaChunk)
		n.arena = make([]Signal, 0, max(size, len(fs)))
	}
	start := len(n.arena)
	n.arena = append(n.arena, fs...)
	return n.arena[start:len(n.arena):len(n.arena)]
}

// NumGates returns the number of logic gates (excluding const, inputs,
// buffers and inverters).
func (n *Network) NumGates() int {
	c := 0
	for _, nd := range n.Nodes {
		switch nd.Op {
		case Const0, Input, Buf, Not:
		default:
			c++
		}
	}
	return c
}

// AddInput appends a primary input with the given name and returns its
// signal.
func (n *Network) AddInput(name string) Signal {
	idx := len(n.Nodes)
	n.Nodes = append(n.Nodes, Node{Op: Input, Name: name})
	n.Inputs = append(n.Inputs, idx)
	return MakeSignal(idx, false)
}

// AddGate appends a gate computing op over the fanins and returns its
// signal. Fanins must reference existing nodes; arity is validated.
func (n *Network) AddGate(op Op, fanins ...Signal) Signal {
	switch op {
	case Const0, Input:
		panic("netlist: AddGate cannot create const/input nodes")
	case Not, Buf:
		if len(fanins) != 1 {
			panic(fmt.Sprintf("netlist: %v needs 1 fanin, got %d", op, len(fanins)))
		}
	case Mux, Maj:
		if len(fanins) != 3 {
			panic(fmt.Sprintf("netlist: %v needs 3 fanins, got %d", op, len(fanins)))
		}
	default:
		if len(fanins) < 2 {
			panic(fmt.Sprintf("netlist: %v needs >=2 fanins, got %d", op, len(fanins)))
		}
	}
	for _, f := range fanins {
		if f.Node() >= len(n.Nodes) {
			panic(fmt.Sprintf("netlist: fanin %d references future node", f.Node()))
		}
	}
	idx := len(n.Nodes)
	n.Nodes = append(n.Nodes, Node{Op: op, Fanins: n.alloc(fanins)})
	return MakeSignal(idx, false)
}

// AddOutput registers sig as a primary output with the given name.
func (n *Network) AddOutput(name string, sig Signal) {
	n.Outputs = append(n.Outputs, Output{Name: name, Sig: sig})
}

// NumInputs returns the number of primary inputs.
func (n *Network) NumInputs() int { return len(n.Inputs) }

// NumOutputs returns the number of primary outputs.
func (n *Network) NumOutputs() int { return len(n.Outputs) }

// Validate checks structural invariants: node 0 is const, fanins point
// backwards, arities are correct, and output signals are in range.
func (n *Network) Validate() error {
	if len(n.Nodes) == 0 || n.Nodes[0].Op != Const0 {
		return fmt.Errorf("netlist: node 0 must be Const0")
	}
	for i, nd := range n.Nodes {
		for _, f := range nd.Fanins {
			if f.Node() >= i {
				return fmt.Errorf("netlist: node %d has forward fanin %d", i, f.Node())
			}
		}
		switch nd.Op {
		case Const0, Input:
			if len(nd.Fanins) != 0 {
				return fmt.Errorf("netlist: node %d: %v with fanins", i, nd.Op)
			}
		case Not, Buf:
			if len(nd.Fanins) != 1 {
				return fmt.Errorf("netlist: node %d: %v with %d fanins", i, nd.Op, len(nd.Fanins))
			}
		case Mux, Maj:
			if len(nd.Fanins) != 3 {
				return fmt.Errorf("netlist: node %d: %v with %d fanins", i, nd.Op, len(nd.Fanins))
			}
		default:
			if len(nd.Fanins) < 2 {
				return fmt.Errorf("netlist: node %d: %v with %d fanins", i, nd.Op, len(nd.Fanins))
			}
		}
	}
	for _, o := range n.Outputs {
		if o.Sig.Node() >= len(n.Nodes) {
			return fmt.Errorf("netlist: output %q references missing node", o.Name)
		}
	}
	return nil
}

// EvalWord computes one simulation word per node given one word per primary
// input (64 parallel patterns). The returned slice is indexed by node.
func (n *Network) EvalWord(inputs []uint64) []uint64 {
	return n.EvalWordInto(nil, inputs)
}

// EvalWordInto is EvalWord writing into vals when its capacity suffices
// (a fresh slice is allocated otherwise) and returning the node values.
func (n *Network) EvalWordInto(vals, inputs []uint64) []uint64 {
	if len(inputs) != len(n.Inputs) {
		panic(fmt.Sprintf("netlist: EvalWord got %d input words, want %d", len(inputs), len(n.Inputs)))
	}
	if cap(vals) < len(n.Nodes) {
		vals = make([]uint64, len(n.Nodes))
	}
	vals = vals[:len(n.Nodes)]
	inIdx := 0
	get := func(s Signal) uint64 {
		v := vals[s.Node()]
		if s.Neg() {
			return ^v
		}
		return v
	}
	for i, nd := range n.Nodes {
		switch nd.Op {
		case Const0:
			vals[i] = 0
		case Input:
			vals[i] = inputs[inIdx]
			inIdx++
		case Not:
			vals[i] = ^get(nd.Fanins[0])
		case Buf:
			vals[i] = get(nd.Fanins[0])
		case And, Nand:
			v := ^uint64(0)
			for _, f := range nd.Fanins {
				v &= get(f)
			}
			if nd.Op == Nand {
				v = ^v
			}
			vals[i] = v
		case Or, Nor:
			v := uint64(0)
			for _, f := range nd.Fanins {
				v |= get(f)
			}
			if nd.Op == Nor {
				v = ^v
			}
			vals[i] = v
		case Xor, Xnor:
			v := uint64(0)
			for _, f := range nd.Fanins {
				v ^= get(f)
			}
			if nd.Op == Xnor {
				v = ^v
			}
			vals[i] = v
		case Maj:
			a, b, c := get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2])
			vals[i] = (a & b) | (a & c) | (b & c)
		case Mux:
			s, hi, lo := get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2])
			vals[i] = (s & hi) | (^s & lo)
		}
	}
	return vals
}

// OutputWords evaluates the network on the given input words and returns one
// word per primary output.
func (n *Network) OutputWords(inputs []uint64) []uint64 {
	vals := n.EvalWord(inputs)
	out := make([]uint64, len(n.Outputs))
	for i, o := range n.Outputs {
		v := vals[o.Sig.Node()]
		if o.Sig.Neg() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// Levels returns the logic level of every node (inputs and constants are
// level 0; buffers and inverters are transparent).
func (n *Network) Levels() []int {
	lv := make([]int, len(n.Nodes))
	for i, nd := range n.Nodes {
		switch nd.Op {
		case Const0, Input:
			lv[i] = 0
		case Buf, Not:
			lv[i] = lv[nd.Fanins[0].Node()]
		default:
			m := 0
			for _, f := range nd.Fanins {
				if l := lv[f.Node()]; l > m {
					m = l
				}
			}
			lv[i] = m + 1
		}
	}
	return lv
}

// Depth returns the number of logic levels on the longest input-to-output
// path.
func (n *Network) Depth() int {
	lv := n.Levels()
	d := 0
	for _, o := range n.Outputs {
		if l := lv[o.Sig.Node()]; l > d {
			d = l
		}
	}
	return d
}

// LiveNodes returns a mark per node of whether it is in the transitive fanin
// of some primary output. Fanins precede their gates (Validate), so one
// scan from the newest node down marks every fanin of a live node before
// the scan reaches it.
func (n *Network) LiveNodes() []bool {
	live := make([]bool, len(n.Nodes))
	for _, o := range n.Outputs {
		live[o.Sig.Node()] = true
	}
	for i := len(n.Nodes) - 1; i > 0; i-- {
		if live[i] {
			for _, f := range n.Nodes[i].Fanins {
				live[f.Node()] = true
			}
		}
	}
	return live
}

// Clean returns a copy of the network with dead nodes removed and buffers
// bypassed. Input order and output names are preserved.
func (n *Network) Clean() *Network {
	live := n.LiveNodes()
	out := New(n.Name)
	gates, fanins := 0, 0
	for i, nd := range n.Nodes {
		switch nd.Op {
		case Const0, Input, Buf, Not:
		default:
			if live[i] {
				gates++
				fanins += len(nd.Fanins)
			}
		}
	}
	out.Grow(len(n.Inputs), gates, fanins, len(n.Outputs))
	remap := make([]Signal, len(n.Nodes))
	remap[0] = SigConst0
	ms := func(s Signal) Signal { return remap[s.Node()].NotIf(s.Neg()) }
	for _, in := range n.Inputs {
		// Inputs are always kept to preserve the interface.
		remap[in] = out.AddInput(n.Nodes[in].Name)
	}
	var fs []Signal
	for i, nd := range n.Nodes {
		if !live[i] {
			continue
		}
		switch nd.Op {
		case Const0, Input:
		case Buf:
			remap[i] = ms(nd.Fanins[0])
		case Not:
			remap[i] = ms(nd.Fanins[0]).Not()
		default:
			fs = fs[:0]
			for _, f := range nd.Fanins {
				fs = append(fs, ms(f))
			}
			remap[i] = out.AddGate(nd.Op, fs...)
		}
	}
	for _, o := range n.Outputs {
		out.AddOutput(o.Name, ms(o.Sig))
	}
	return out
}

// OpCounts returns a histogram of node operations.
func (n *Network) OpCounts() map[Op]int {
	m := map[Op]int{}
	for _, nd := range n.Nodes {
		m[nd.Op]++
	}
	return m
}

// Stats returns a human-readable one-line summary.
func (n *Network) Stats() string {
	counts := n.OpCounts()
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	s := fmt.Sprintf("%s: i/o=%d/%d gates=%d depth=%d [", n.Name, len(n.Inputs), len(n.Outputs), n.NumGates(), n.Depth())
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v:%d", Op(k), counts[Op(k)])
	}
	return s + "]"
}
