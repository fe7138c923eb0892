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
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// Write renders the network as structural Verilog. Ports keep their
// sanitized names, made unique with a _2, _3, ... suffix; gate i drives
// wire w<i>, or the first free suffix of it when a port holds that name.
func Write(n *netlist.Network) string {
	var sb strings.Builder
	name := n.Name
	if name == "" {
		name = "top"
	}
	used := map[string]bool{}
	inNames := make([]string, len(n.Inputs))
	for i, idx := range n.Inputs {
		nm := n.Nodes[idx].Name
		if nm == "" {
			nm = fmt.Sprintf("pi%d", i)
		}
		inNames[i] = uniquify(sanitize(nm), used)
	}
	outNames := make([]string, len(n.Outputs))
	for i, o := range n.Outputs {
		nm := o.Name
		if nm == "" {
			nm = fmt.Sprintf("po%d", i)
		}
		outNames[i] = uniquify(sanitize(nm), used)
	}

	ports := append(append([]string{}, inNames...), outNames...)
	fmt.Fprintf(&sb, "module %s (%s);\n", sanitize(name), strings.Join(ports, ", "))
	for _, in := range inNames {
		fmt.Fprintf(&sb, "  input %s;\n", in)
	}
	for _, out := range outNames {
		fmt.Fprintf(&sb, "  output %s;\n", out)
	}

	// Wire names per node.
	wire := make([]string, len(n.Nodes))
	for i, idx := range n.Inputs {
		wire[idx] = inNames[i]
	}
	live := n.LiveNodes()
	var wireDecls []string
	for i, nd := range n.Nodes {
		if !live[i] {
			continue
		}
		switch nd.Op {
		case netlist.Const0, netlist.Input:
		default:
			// Gate i is w<i>, unless a port holds that name.
			wire[i] = "w" + strconv.Itoa(i)
			if used[wire[i]] {
				wire[i] = uniquify(wire[i], used)
			}
			wireDecls = append(wireDecls, wire[i])
		}
	}
	sort.Strings(wireDecls)
	if len(wireDecls) > 0 {
		fmt.Fprintf(&sb, "  wire %s;\n", strings.Join(wireDecls, ", "))
	}

	ref := func(s netlist.Signal) string {
		if s.Node() == 0 {
			if s.Neg() {
				return "1'b1"
			}
			return "1'b0"
		}
		w := wire[s.Node()]
		if s.Neg() {
			return "~" + w
		}
		return w
	}
	for i, nd := range n.Nodes {
		if !live[i] || wire[i] == "" || nd.Op == netlist.Input {
			continue
		}
		var expr string
		bin := func(op string) string {
			parts := make([]string, len(nd.Fanins))
			for k, f := range nd.Fanins {
				parts[k] = ref(f)
			}
			return strings.Join(parts, " "+op+" ")
		}
		switch nd.Op {
		case netlist.And:
			expr = bin("&")
		case netlist.Nand:
			expr = "~(" + bin("&") + ")"
		case netlist.Or:
			expr = bin("|")
		case netlist.Nor:
			expr = "~(" + bin("|") + ")"
		case netlist.Xor:
			expr = bin("^")
		case netlist.Xnor:
			expr = "~(" + bin("^") + ")"
		case netlist.Not:
			expr = "~" + ref(nd.Fanins[0])
		case netlist.Buf:
			expr = ref(nd.Fanins[0])
		case netlist.Maj:
			a, b, c := ref(nd.Fanins[0]), ref(nd.Fanins[1]), ref(nd.Fanins[2])
			expr = fmt.Sprintf("(%s & %s) | (%s & %s) | (%s & %s)", a, b, a, c, b, c)
		case netlist.Mux:
			expr = fmt.Sprintf("%s ? %s : %s", ref(nd.Fanins[0]), ref(nd.Fanins[1]), ref(nd.Fanins[2]))
		default:
			continue
		}
		fmt.Fprintf(&sb, "  assign %s = %s;\n", wire[i], expr)
	}
	for i, o := range n.Outputs {
		fmt.Fprintf(&sb, "  assign %s = %s;\n", outNames[i], ref(o.Sig))
	}
	sb.WriteString("endmodule\n")
	return sb.String()
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

func sanitize(s string) string {
	var sb strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if ok {
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
