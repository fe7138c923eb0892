// Package blif reads and writes the Berkeley Logic Interchange Format, the
// native format of the MCNC benchmark suite. Supported constructs:
// .model / .inputs / .outputs / .names (with SOP cover lines) / .end.
package blif

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/netlist"
)

// Write renders the network as BLIF. Every logic node becomes a .names
// block with an explicit cover.
//
// Ports keep their names, made unique with a _2, _3, ... suffix (an empty
// input or output name becomes pi<i> or po<i>). Write names gate i n<i>,
// the complement of net x x_inv, and the constant nets const0 and const1;
// a generated name that a port already holds takes the first free suffix
// instead. The text is appended to one buffer without per-gate strings.
func Write(n *netlist.Network) string {
	name := n.Name
	if name == "" {
		name = "top"
	}
	w := writer{
		n:     n,
		names: make([]string, len(n.Nodes)),
		live:  n.LiveNodes(),
		inv:   make([]bool, len(n.Nodes)),
		buf:   make([]byte, 0, 64*len(n.Nodes)+16*(len(n.Inputs)+len(n.Outputs))),
	}
	used := make(map[string]bool, len(n.Inputs)+len(n.Outputs))
	w.buf = append(append(w.buf, ".model "...), name...)
	w.buf = append(w.buf, "\n.inputs"...)
	for i, idx := range n.Inputs {
		nm := n.Nodes[idx].Name
		if nm == "" {
			nm = fmt.Sprintf("pi%d", i)
		}
		w.names[idx] = uniquify(nm, used)
		w.buf = append(append(w.buf, ' '), w.names[idx]...)
	}
	if len(n.Inputs) == 0 {
		w.buf = append(w.buf, ' ')
	}
	w.buf = append(w.buf, "\n.outputs"...)
	outNames := make([]string, len(n.Outputs))
	for i, o := range n.Outputs {
		nm := o.Name
		if nm == "" {
			nm = fmt.Sprintf("po%d", i)
		}
		outNames[i] = uniquify(nm, used)
		w.buf = append(append(w.buf, ' '), outNames[i]...)
	}
	if len(n.Outputs) == 0 {
		w.buf = append(w.buf, ' ')
	}
	w.buf = append(w.buf, '\n')

	// Move generated names off the port names, and note which inverters
	// and constants the body reads.
	for i := range n.Nodes {
		if w.isGate(i) {
			if w.tmp = w.appendName(w.tmp[:0], i); used[string(w.tmp)] {
				w.names[i] = uniquify(string(w.tmp), used)
			}
		}
	}
	var usesConst [2]bool
	w.forEachRef(func(s netlist.Signal) {
		switch i := s.Node(); {
		case i == 0:
			usesConst[s&1] = true
		case s.Neg() && !w.inv[i]:
			w.inv[i] = true
			if w.tmp = w.appendInv(w.tmp[:0], i); used[string(w.tmp)] {
				if w.invNames == nil {
					w.invNames = map[int]string{}
				}
				w.invNames[i] = uniquify(string(w.tmp), used)
			}
		}
	})
	if usesConst[0] {
		w.consts[0] = uniquify("const0", used)
		w.buf = append(append(w.buf, ".names "...), w.consts[0]...)
		w.buf = append(w.buf, '\n')
	}
	if usesConst[1] {
		w.consts[1] = uniquify("const1", used)
		w.buf = append(append(w.buf, ".names "...), w.consts[1]...)
		w.buf = append(w.buf, "\n1\n"...)
	}

	// Inverter nets, in the order of their first reference.
	w.forEachRef(func(s netlist.Signal) {
		if i := s.Node(); s.Neg() && w.inv[i] {
			w.inv[i] = false
			w.buf = w.appendName(append(w.buf, ".names "...), i)
			w.buf = append(w.appendInv(append(w.buf, ' '), i), "\n0 1\n"...)
		}
	})

	for i, nd := range n.Nodes {
		if !w.isGate(i) {
			continue
		}
		w.buf = append(w.buf, ".names"...)
		for _, f := range nd.Fanins {
			w.buf = w.appendRef(append(w.buf, ' '), f)
		}
		w.buf = append(w.appendName(append(w.buf, ' '), i), '\n')
		w.buf = appendCover(w.buf, nd.Op, len(nd.Fanins))
	}
	// Output drivers. No net is named like an output, so every output
	// gets a buffer.
	for i, o := range n.Outputs {
		w.buf = w.appendRef(append(w.buf, ".names "...), o.Sig)
		w.buf = append(append(append(w.buf, ' '), outNames[i]...), "\n1 1\n"...)
	}
	w.buf = append(w.buf, ".end\n"...)
	return string(w.buf)
}

// writer holds Write's state. A node's names entry is its port name, or
// empty for a gate that keeps its generated name; inv[i] marks an inverter
// net of node i that is still to be emitted.
type writer struct {
	n        *netlist.Network
	names    []string
	live     []bool
	inv      []bool
	invNames map[int]string // inverter nets moved off a port name
	consts   [2]string      // const0 and const1 nets
	buf, tmp []byte
}

// isGate reports whether node i is a live gate, which gets a .names block.
func (w *writer) isGate(i int) bool {
	op := w.n.Nodes[i].Op
	return w.live[i] && op != netlist.Const0 && op != netlist.Input
}

// forEachRef calls f on every signal the body references, in the order it
// writes them: the fanins of each live gate, then the outputs.
func (w *writer) forEachRef(f func(netlist.Signal)) {
	for i, nd := range w.n.Nodes {
		if w.isGate(i) {
			for _, s := range nd.Fanins {
				f(s)
			}
		}
	}
	for _, o := range w.n.Outputs {
		f(o.Sig)
	}
}

// appendName appends the name of node i's net.
func (w *writer) appendName(b []byte, i int) []byte {
	if nm := w.names[i]; nm != "" {
		return append(b, nm...)
	}
	return strconv.AppendInt(append(b, 'n'), int64(i), 10)
}

// appendInv appends the name of the net carrying node i's complement.
func (w *writer) appendInv(b []byte, i int) []byte {
	if nm, ok := w.invNames[i]; ok {
		return append(b, nm...)
	}
	return append(w.appendName(b, i), "_inv"...)
}

// appendRef appends the name of the net carrying s.
func (w *writer) appendRef(b []byte, s netlist.Signal) []byte {
	switch {
	case s.Node() == 0:
		return append(b, w.consts[s&1]...)
	case s.Neg():
		return w.appendInv(b, s.Node())
	}
	return w.appendName(b, s.Node())
}

// appendCover appends the on-set cover of a k-input op.
func appendCover(b []byte, op netlist.Op, k int) []byte {
	switch op {
	case netlist.And:
		b = appendRow(b, k, -1, '1')
	case netlist.Nor:
		b = appendRow(b, k, -1, '0')
	case netlist.Nand:
		for j := 0; j < k; j++ {
			b = appendRow(b, k, j, '0')
		}
	case netlist.Or:
		for j := 0; j < k; j++ {
			b = appendRow(b, k, j, '1')
		}
	case netlist.Xor, netlist.Xnor:
		// Enumerate parities (fanin counts are small).
		odd := op == netlist.Xor
		for m := 0; m < 1<<uint(k); m++ {
			if bits.OnesCount(uint(m))%2 == 1 != odd {
				continue
			}
			for j := 0; j < k; j++ {
				b = append(b, '0'+byte(m>>uint(j)&1))
			}
			b = append(b, " 1\n"...)
		}
	case netlist.Not:
		b = append(b, "0 1\n"...)
	case netlist.Buf:
		b = append(b, "1 1\n"...)
	case netlist.Maj:
		b = append(b, "11- 1\n1-1 1\n-11 1\n"...)
	case netlist.Mux:
		b = append(b, "11- 1\n0-1 1\n"...)
	}
	return b
}

// appendRow appends a k-wide cover row with c at column at and '-'
// elsewhere, or c in every column when at is -1.
func appendRow(b []byte, k, at int, c byte) []byte {
	for j := 0; j < k; j++ {
		if at < 0 || j == at {
			b = append(b, c)
		} else {
			b = append(b, '-')
		}
	}
	return append(b, " 1\n"...)
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

// Parse reads a BLIF model into a netlist. Covers are interpreted as SOP
// over the listed fanins; the single-output-cover convention is supported
// (output value 1 rows; value-0 covers are complemented). Parsing is the
// streaming reader over the in-memory source; hand a file directly to
// ParseReader to avoid buffering it at all.
func Parse(src string) (*netlist.Network, error) {
	return ParseReader(strings.NewReader(src))
}
