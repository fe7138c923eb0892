package bdd

import (
	"repro/internal/netlist"
)

// Variable ordering. BDD sizes are exquisitely order-sensitive; the classic
// static heuristic orders inputs by depth-first traversal from the outputs
// (keeping related inputs adjacent), which is what BDS-class tools use as a
// starting order before dynamic reordering.

// StaticOrder returns a permutation of the primary inputs: order[k] is the
// input index placed at BDD level k. The order is computed by depth-first
// traversal from each output, visiting deeper fanins first, so cones that
// converge meet at adjacent levels.
func StaticOrder(n *netlist.Network) []int {
	inputLevel := make(map[int]int) // node index -> input position
	for i, idx := range n.Inputs {
		inputLevel[idx] = i
	}
	seen := make([]bool, len(n.Nodes))
	var order []int
	var dfs func(idx int)
	dfs = func(idx int) {
		if seen[idx] {
			return
		}
		seen[idx] = true
		nd := &n.Nodes[idx]
		if nd.Op == netlist.Input {
			order = append(order, inputLevel[idx])
			return
		}
		for _, f := range nd.Fanins {
			dfs(f.Node())
		}
	}
	for _, o := range n.Outputs {
		dfs(o.Sig.Node())
	}
	// Unreferenced inputs go last.
	used := make([]bool, len(n.Inputs))
	for _, v := range order {
		used[v] = true
	}
	for i := range n.Inputs {
		if !used[i] {
			order = append(order, i)
		}
	}
	return order
}

// SiftOrder performs sifting-style dynamic reordering by rebuilding: each
// variable in turn is tried at every position and kept where the shared BDD
// is smallest. Rebuild-based sifting is sound by construction (no in-place
// graph surgery) at the cost of rebuild time, so it is gated to circuits
// with at most maxVars inputs; larger circuits keep the static order.
func SiftOrder(n *netlist.Network, limit, maxVars int) []int {
	order := StaticOrder(n)
	if len(order) > maxVars {
		return order
	}
	// Every trial rebuilds into one manager, reset in between.
	m := NewManager(n.NumInputs(), limit)
	vals := make([]Ref, len(n.Nodes))
	level := make([]int, len(order))
	size := func(ord []int) int {
		for k, v := range ord {
			level[v] = k
		}
		m.Reset()
		roots, err := m.build(n, level, vals)
		if err != nil {
			return 1 << 30
		}
		return m.CountNodes(roots)
	}
	insert := func(rest []int, pos, v int) []int {
		out := make([]int, 0, len(rest)+1)
		out = append(out, rest[:pos]...)
		out = append(out, v)
		return append(out, rest[pos:]...)
	}
	best := size(order)
	for pass := 0; pass < 2; pass++ {
		improved := false
		for vi := 0; vi < len(order); vi++ {
			v := order[vi]
			rest := make([]int, 0, len(order)-1)
			rest = append(rest, order[:vi]...)
			rest = append(rest, order[vi+1:]...)
			bestPos, bestSize := -1, best
			for p := 0; p <= len(rest); p++ {
				if s := size(insert(rest, p, v)); s < bestSize {
					bestSize, bestPos = s, p
				}
			}
			if bestPos >= 0 {
				order = insert(rest, bestPos, v)
				best = bestSize
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return order
}

// BuildNetworkOrdered is BuildNetwork with an explicit variable order:
// order[k] gives the input index assigned to BDD level k.
func BuildNetworkOrdered(n *netlist.Network, limit int, order []int) (*Manager, []Ref, error) {
	level := make([]int, len(order)) // input index -> level
	for k, v := range order {
		level[v] = k
	}
	m := NewManager(n.NumInputs(), limit)
	roots, err := m.build(n, level, make([]Ref, len(n.Nodes)))
	if err != nil {
		return nil, nil, err
	}
	return m, roots, nil
}

// DecomposeNetworkOrdered is the ordered variant of DecomposeNetwork: it
// builds the BDDs with the given variable order (nil means the static DFS
// order) and decomposes them back to a netlist.
func DecomposeNetworkOrdered(n *netlist.Network, limit int, order []int) (*netlist.Network, error) {
	if order == nil {
		order = StaticOrder(n)
	}
	m, roots, err := BuildNetworkOrdered(n, limit, order)
	if err != nil {
		return nil, err
	}
	// BDD level k reads input order[k].
	inNames := make([]string, n.NumInputs())
	for k, v := range order {
		inNames[k] = n.Nodes[n.Inputs[v]].Name
	}
	outNames := make([]string, len(n.Outputs))
	for i, o := range n.Outputs {
		outNames[i] = o.Name
	}
	dec, err := m.Decompose(roots, inNames, outNames)
	if err != nil {
		return nil, err
	}
	// Decompose declares inputs in level order; re-permute the interface to
	// match the original input order.
	fixed := netlist.New(n.Name)
	remap := make([]netlist.Signal, len(dec.Nodes))
	// Create inputs in original order first.
	inSigs := make([]netlist.Signal, n.NumInputs())
	for i := range n.Inputs {
		inSigs[i] = fixed.AddInput(n.Nodes[n.Inputs[i]].Name)
	}
	for k, v := range order {
		remap[dec.Inputs[k]] = inSigs[v]
	}
	for i, nd := range dec.Nodes {
		switch nd.Op {
		case netlist.Const0, netlist.Input:
			continue
		}
		fs := make([]netlist.Signal, len(nd.Fanins))
		for j, f := range nd.Fanins {
			fs[j] = remap[f.Node()].NotIf(f.Neg())
		}
		remap[i] = fixed.AddGate(nd.Op, fs...)
	}
	for _, o := range dec.Outputs {
		fixed.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return fixed, nil
}
