// Package verilog reads and writes a structural subset of Verilog — the
// interface of the paper's MIGhty package, which "reads a Verilog
// description of a combinational logic circuit, flattened into Boolean
// primitives, and writes back a Verilog description of the optimized MIG".
//
// The supported subset is scalar combinational Verilog:
//
//	module name (ports);
//	  input a; output z; wire w;
//	  assign w = ~(a & b) | (c ^ d);
//	  assign z = s ? w : c;          // mux
//	endmodule
//
// plus the constants 1'b0 / 1'b1. Expressions support ~, &, |, ^, ?: and
// parentheses with the usual precedences.
package verilog

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// Write renders the network as structural Verilog. Ports keep their
// sanitized names, made unique with a _2, _3, ... suffix; gate i drives
// wire w<i>, or the first free suffix of it when a port holds that name.
// The text is appended to one buffer: only ports that need a new name and
// gates moved off a port's name allocate.
func Write(n *netlist.Network) string {
	name := n.Name
	if name == "" {
		name = "top"
	}
	w := writer{
		names: make([]string, len(n.Nodes)),
		buf:   make([]byte, 0, 64*len(n.Nodes)+32*(len(n.Inputs)+len(n.Outputs))+64),
	}
	used := make(map[string]bool, len(n.Inputs)+len(n.Outputs))
	for i, idx := range n.Inputs {
		nm := n.Nodes[idx].Name
		if nm == "" {
			nm = fmt.Sprintf("pi%d", i)
		}
		w.names[idx] = uniquify(sanitize(nm), used)
	}
	outNames := make([]string, len(n.Outputs))
	for i, o := range n.Outputs {
		nm := o.Name
		if nm == "" {
			nm = fmt.Sprintf("po%d", i)
		}
		outNames[i] = uniquify(sanitize(nm), used)
	}

	w.buf = append(append(w.buf, "module "...), sanitize(name)...)
	w.buf = append(w.buf, " ("...)
	sep := ""
	for _, idx := range n.Inputs {
		w.buf = append(append(w.buf, sep...), w.names[idx]...)
		sep = ", "
	}
	for _, out := range outNames {
		w.buf = append(append(w.buf, sep...), out...)
		sep = ", "
	}
	w.buf = append(w.buf, ");\n"...)
	for _, idx := range n.Inputs {
		w.buf = append(append(append(w.buf, "  input "...), w.names[idx]...), ";\n"...)
	}
	for _, out := range outNames {
		w.buf = append(append(append(w.buf, "  output "...), out...), ";\n"...)
	}

	// Gate i is w<i>, unless a port holds that name. Wires are declared
	// in the order of their names.
	live := n.LiveNodes()
	isGate := func(i int) bool {
		op := n.Nodes[i].Op
		return live[i] && op != netlist.Const0 && op != netlist.Input
	}
	gates := make([]int32, 0, len(n.Nodes))
	for i := range n.Nodes {
		if isGate(i) {
			if w.tmp = w.appendWire(w.tmp[:0], i); used[string(w.tmp)] {
				w.names[i] = uniquify(string(w.tmp), used)
			}
			gates = append(gates, int32(i))
		}
	}
	slices.SortFunc(gates, w.compareWires)
	for k, i := range gates {
		if k == 0 {
			w.buf = append(w.buf, "  wire "...)
		} else {
			w.buf = append(w.buf, ", "...)
		}
		w.buf = w.appendWire(w.buf, int(i))
	}
	if len(gates) > 0 {
		w.buf = append(w.buf, ";\n"...)
	}

	for i, nd := range n.Nodes {
		if !isGate(i) {
			continue
		}
		start := len(w.buf)
		w.buf = append(w.appendWire(append(w.buf, "  assign "...), i), " = "...)
		switch nd.Op {
		case netlist.And:
			w.appendJoin(nd.Fanins, " & ")
		case netlist.Nand:
			w.appendNot(nd.Fanins, " & ")
		case netlist.Or:
			w.appendJoin(nd.Fanins, " | ")
		case netlist.Nor:
			w.appendNot(nd.Fanins, " | ")
		case netlist.Xor:
			w.appendJoin(nd.Fanins, " ^ ")
		case netlist.Xnor:
			w.appendNot(nd.Fanins, " ^ ")
		case netlist.Not:
			w.buf = w.appendRef(append(w.buf, '~'), nd.Fanins[0])
		case netlist.Buf:
			w.buf = w.appendRef(w.buf, nd.Fanins[0])
		case netlist.Maj:
			a, b, c := nd.Fanins[0], nd.Fanins[1], nd.Fanins[2]
			w.buf = append(w.appendRef(append(w.buf, '('), a), " & "...)
			w.buf = append(w.appendRef(w.buf, b), ") | ("...)
			w.buf = append(w.appendRef(w.buf, a), " & "...)
			w.buf = append(w.appendRef(w.buf, c), ") | ("...)
			w.buf = append(w.appendRef(w.buf, b), " & "...)
			w.buf = append(w.appendRef(w.buf, c), ')')
		case netlist.Mux:
			w.buf = append(w.appendRef(w.buf, nd.Fanins[0]), " ? "...)
			w.buf = append(w.appendRef(w.buf, nd.Fanins[1]), " : "...)
			w.buf = w.appendRef(w.buf, nd.Fanins[2])
		default:
			w.buf = w.buf[:start]
			continue
		}
		w.buf = append(w.buf, ";\n"...)
	}
	for i, o := range n.Outputs {
		w.buf = append(append(append(w.buf, "  assign "...), outNames[i]...), " = "...)
		w.buf = append(w.appendRef(w.buf, o.Sig), ";\n"...)
	}
	w.buf = append(w.buf, "endmodule\n"...)
	return string(w.buf)
}

// writer holds Write's state. A node's names entry is its port name, or
// empty for a gate that keeps its generated name w<i>.
type writer struct {
	names    []string
	buf, tmp []byte
}

// appendWire appends the name of node i's net.
func (w *writer) appendWire(b []byte, i int) []byte {
	if w.names[i] != "" {
		return append(b, w.names[i]...)
	}
	return strconv.AppendInt(append(b, 'w'), int64(i), 10)
}

// appendRef appends a reference to s: a constant, or its node's net,
// complemented with ~.
func (w *writer) appendRef(b []byte, s netlist.Signal) []byte {
	if s.Node() == 0 {
		if s.Neg() {
			return append(b, "1'b1"...)
		}
		return append(b, "1'b0"...)
	}
	if s.Neg() {
		b = append(b, '~')
	}
	return w.appendWire(b, s.Node())
}

// appendJoin appends the references to fs separated by op.
func (w *writer) appendJoin(fs []netlist.Signal, op string) {
	for k, f := range fs {
		if k > 0 {
			w.buf = append(w.buf, op...)
		}
		w.buf = w.appendRef(w.buf, f)
	}
}

// appendNot appends the complement of appendJoin's expression.
func (w *writer) appendNot(fs []netlist.Signal, op string) {
	w.buf = append(w.buf, "~("...)
	w.appendJoin(fs, op)
	w.buf = append(w.buf, ')')
}

// compareWires orders gates by the names of their wires as strings.
// Generated names w<i> compare as their decimal strings do, without
// being formatted.
func (w *writer) compareWires(x, y int32) int {
	if w.names[x] == "" && w.names[y] == "" {
		return compareDecimal(int(x), int(y))
	}
	var a, b [32]byte
	return bytes.Compare(w.appendWire(a[:0], int(x)), w.appendWire(b[:0], int(y)))
}

// compareDecimal compares the decimal strings of x, y ≥ 0: scaled to the
// same number of digits, the smaller number's string is first, and of two
// equal scaled values the shorter string, a prefix of the other.
func compareDecimal(x, y int) int {
	dx, dy := digits(x), digits(y)
	sx, sy := x, y
	for d := dx; d < dy; d++ {
		sx *= 10
	}
	for d := dy; d < dx; d++ {
		sy *= 10
	}
	if sx != sy {
		return cmp.Compare(sx, sy)
	}
	return cmp.Compare(dx, dy)
}

func digits(x int) int {
	d := 1
	for ; x >= 10; x /= 10 {
		d++
	}
	return d
}

// uniquify makes name unique within used by appending _2, _3, ... on
// collision, and records the result.
func uniquify(name string, used map[string]bool) string {
	if !used[name] {
		used[name] = true
		return name
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s_%d", name, i)
		if !used[cand] {
			used[cand] = true
			return cand
		}
	}
}

// sanitize replaces each character that cannot appear in an identifier
// with '_'. A name that needs no change is returned as it is.
func sanitize(s string) string {
	ok := s != ""
	for i, r := range s {
		if !identRune(i, r) {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	var sb strings.Builder
	for i, r := range s {
		if identRune(i, r) {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

// identRune reports whether r may stand at byte offset i of an identifier.
func identRune(i int, r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
}
