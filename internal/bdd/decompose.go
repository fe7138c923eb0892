package bdd

import (
	"slices"

	"repro/internal/netlist"
)

// BDS-style decomposition: each BDD is converted into a multi-level network
// by walking the diagram top-down and extracting simple gates at nodes where
// a cofactor is constant or complementary:
//
//	f = ite(x, f1, 0)  →  x AND f1          (1-conjunctive)
//	f = ite(x, 0, f0)  →  x' AND f0
//	f = ite(x, f1, 1)  →  x' OR f1          (0-disjunctive)
//	f = ite(x, 1, f0)  →  x OR f0
//	f = ite(x, f0', f0) → x XOR f0          (complement cofactors)
//	otherwise          →  MUX(x, f1, f0)
//
// This captures the AND/OR/XOR dominator extraction at the heart of BDS
// (Yang & Ciesielski, TCAD 2002) in its simplest form; shared BDD nodes map
// to shared network nodes through the memo table.

// Decompose converts the given BDD roots into a logic network. inputNames
// provides the primary input name for each BDD variable; outputNames labels
// each root.
func (m *Manager) Decompose(roots []Ref, inputNames, outputNames []string) (*netlist.Network, error) {
	n := netlist.New("bds")
	vars := make([]netlist.Signal, m.numVars)
	for i := 0; i < m.numVars; i++ {
		name := ""
		if i < len(inputNames) {
			name = inputNames[i]
		}
		vars[i] = n.AddInput(name)
	}
	sigs, err := m.DecomposeInto(n, roots, vars)
	if err != nil {
		return nil, err
	}
	for i, s := range sigs {
		name := ""
		if i < len(outputNames) {
			name = outputNames[i]
		}
		n.AddOutput(name, s)
	}
	return n, nil
}

// DecomposeInto decomposes the BDD roots into gates appended to an existing
// network, reading BDD variable i from vars[i]. It returns one signal per
// root. This is the building block of the windowed (partitioned) BDS flow.
// The complements it builds for XOR detection count against m's limit;
// past it the result is ErrLimit.
func (m *Manager) DecomposeInto(n *netlist.Network, roots []Ref, vars []netlist.Signal) (_ []netlist.Signal, err error) {
	defer catchLimit(&err)
	// The walk reads only nodes below the roots, so memo needs a slot per
	// node m holds now; neg grows with the complements it adds.
	m.memo = slices.Grow(m.memo[:0], len(m.nodes))[:len(m.nodes)]
	for i := range m.memo {
		m.memo[i] = noSignal
	}
	m.memo[False], m.memo[True] = netlist.SigConst0, netlist.SigConst1
	m.neg = slices.Grow(m.neg[:0], len(m.nodes))[:len(m.nodes)]
	clear(m.neg)
	d := decomposer{m: m, n: n, vars: vars}
	out := make([]netlist.Signal, len(roots))
	for i, root := range roots {
		out[i] = d.rec(root)
	}
	return out, nil
}

// noSignal marks a node DecomposeInto has not decomposed yet.
const noSignal = ^netlist.Signal(0)

// decomposer is one DecomposeInto walk over m, appending gates to n.
type decomposer struct {
	m    *Manager
	n    *netlist.Network
	vars []netlist.Signal
}

// rec returns the signal of node f, decomposing it on first visit.
func (d *decomposer) rec(f Ref) netlist.Signal {
	m := d.m
	if s := m.memo[f]; s != noSignal {
		return s
	}
	nd := m.nodes[f]
	x := d.vars[nd.varIdx]
	var sig netlist.Signal
	switch {
	case nd.lo == False:
		sig = d.n.AddGate(netlist.And, x, d.rec(nd.hi))
	case nd.hi == False:
		sig = d.n.AddGate(netlist.And, x.Not(), d.rec(nd.lo))
	case nd.lo == True:
		sig = d.n.AddGate(netlist.Or, x.Not(), d.rec(nd.hi))
	case nd.hi == True:
		sig = d.n.AddGate(netlist.Or, x, d.rec(nd.lo))
	case nd.hi == d.complement(nd.lo):
		sig = d.n.AddGate(netlist.Xor, x, d.rec(nd.lo))
	default:
		sig = d.n.AddGate(netlist.Mux, x, d.rec(nd.hi), d.rec(nd.lo))
	}
	m.memo[f] = sig
	return sig
}

// complement returns the complement of the non-constant node f, building
// it on first use and remembering the pair both ways (a complement is
// never a leaf, so False marks an unknown one).
func (d *decomposer) complement(f Ref) Ref {
	m := d.m
	if r := m.neg[f]; r != False {
		return r
	}
	r := m.not(f)
	if int(r) >= len(m.neg) {
		m.neg = append(m.neg, make([]Ref, len(m.nodes)-len(m.neg))...)
	}
	m.neg[f], m.neg[r] = r, f
	return r
}

// DecomposeNetwork is the global BDS-style flow: build BDDs for a netlist
// and decompose them back into a (usually restructured) netlist. The limit
// bounds the manager's nodes, those the decomposition adds included; past
// it the result is ErrLimit, as on BDD-hostile circuits such as clma.
func DecomposeNetwork(n *netlist.Network, limit int) (*netlist.Network, error) {
	m, roots, err := BuildNetwork(n, limit)
	if err != nil {
		return nil, err
	}
	inNames := make([]string, n.NumInputs())
	for i, idx := range n.Inputs {
		inNames[i] = n.Nodes[idx].Name
	}
	outNames := make([]string, len(n.Outputs))
	for i, o := range n.Outputs {
		outNames[i] = o.Name
	}
	dec, err := m.Decompose(roots, inNames, outNames)
	if err != nil {
		return nil, err
	}
	dec.Name = n.Name
	return dec, nil
}
