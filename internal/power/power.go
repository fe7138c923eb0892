// Package power implements static signal-probability propagation and
// switching-activity estimation on netlists, matching the activity metric
// the paper reports in Table I: under independent inputs with probability
// 0.5, a node with output probability p switches with probability 2·p·(1−p),
// and the circuit activity is the sum over logic nodes.
package power

import (
	"repro/internal/netlist"
)

// Probabilities propagates signal probabilities through the network under
// an independence assumption. An input past the end of inputProbs (every
// input, when it is nil) has probability 0.5.
func Probabilities(n *netlist.Network, inputProbs []float64) []float64 {
	p := make([]float64, n.NumNodes())
	get := func(s netlist.Signal) float64 {
		v := p[s.Node()]
		if s.Neg() {
			return 1 - v
		}
		return v
	}
	inIdx := 0
	for i, nd := range n.Nodes {
		switch nd.Op {
		case netlist.Const0:
			p[i] = 0
		case netlist.Input:
			p[i] = 0.5
			if inIdx < len(inputProbs) {
				p[i] = inputProbs[inIdx]
			}
			inIdx++
		case netlist.Not:
			p[i] = 1 - get(nd.Fanins[0])
		case netlist.Buf:
			p[i] = get(nd.Fanins[0])
		case netlist.And, netlist.Nand:
			v := 1.0
			for _, f := range nd.Fanins {
				v *= get(f)
			}
			if nd.Op == netlist.Nand {
				v = 1 - v
			}
			p[i] = v
		case netlist.Or, netlist.Nor:
			v := 1.0
			for _, f := range nd.Fanins {
				v *= 1 - get(f)
			}
			if nd.Op == netlist.Nor {
				p[i] = v
			} else {
				p[i] = 1 - v
			}
		case netlist.Xor, netlist.Xnor:
			v := 0.0
			for _, f := range nd.Fanins {
				q := get(f)
				v = v*(1-q) + (1-v)*q
			}
			if nd.Op == netlist.Xnor {
				v = 1 - v
			}
			p[i] = v
		case netlist.Maj:
			a, b, c := get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2])
			p[i] = a*b + a*c + b*c - 2*a*b*c
		case netlist.Mux:
			s, hi, lo := get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2])
			p[i] = s*hi + (1-s)*lo
		}
	}
	return p
}

// Activity returns Σ 2·p·(1−p) over live logic nodes (constants, inputs,
// buffers and inverters excluded), the paper's activity metric.
func Activity(n *netlist.Network, inputProbs []float64) float64 {
	p := Probabilities(n, inputProbs)
	live := n.LiveNodes()
	total := 0.0
	for i, nd := range n.Nodes {
		if !live[i] {
			continue
		}
		switch nd.Op {
		case netlist.Const0, netlist.Input, netlist.Buf, netlist.Not:
			continue
		}
		total += 2 * p[i] * (1 - p[i])
	}
	return total
}
