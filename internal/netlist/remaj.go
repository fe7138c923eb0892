package netlist

// Remajorize detects three-leaf cones that compute a (possibly input- or
// output-complemented) three-input majority and replaces them with a single
// Maj gate. Flattened formats like structural Verilog have no majority
// operator, so a majority node written out as (a&b)|(a&c)|(b&c) would
// otherwise come back as three AND and two OR gates; this pass restores the
// majority structure that MIG construction wants to see.
func (n *Network) Remajorize() *Network {
	m := majMatcher{n: n, refs: make([]int, len(n.Nodes)), tt: make([]uint8, len(n.Nodes))}
	// Every node but the constant, the inputs and Not/Buf adds at most one
	// gate: its own, or a Maj that reads one fanin more than a two-input
	// And/Or root.
	gates, fanins := 0, 0
	for _, nd := range n.Nodes {
		for _, f := range nd.Fanins {
			m.refs[f.Node()]++
		}
		switch nd.Op {
		case Const0, Input, Not, Buf:
		case And, Or:
			gates, fanins = gates+1, fanins+max(len(nd.Fanins), 3)
		default:
			gates, fanins = gates+1, fanins+len(nd.Fanins)
		}
	}
	for _, o := range n.Outputs {
		m.refs[o.Sig.Node()]++
	}

	out := New(n.Name)
	out.Grow(len(n.Inputs), gates, fanins, len(n.Outputs))
	remap := make([]Signal, len(n.Nodes))
	ms := func(s Signal) Signal { return remap[s.Node()].NotIf(s.Neg()) }

	var fs []Signal
	for i, nd := range n.Nodes {
		switch nd.Op {
		case Const0:
			remap[i] = SigConst0
			continue
		case Input:
			remap[i] = out.AddInput(nd.Name)
			continue
		}
		if leaves, neg, ok := m.match(i); ok {
			remap[i] = out.AddGate(Maj, ms(leaves[0]), ms(leaves[1]), ms(leaves[2])).NotIf(neg)
			continue
		}
		switch nd.Op {
		case Not:
			remap[i] = ms(nd.Fanins[0]).Not()
		case Buf:
			remap[i] = ms(nd.Fanins[0])
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
	return out.Clean()
}

// majVariants[v] is the truth table, over leaves 0xAA, 0xCC and 0xF0, of
// maj3 with leaf k complemented when bit k of v is set and the output
// complemented when bit 3 is. Complementing everything leaves maj3
// unchanged, so v and v^15 share a table and the first match decides.
var majVariants = func() (t [16]uint8) {
	for v := range t {
		a, b, c := uint8(0xAA), uint8(0xCC), uint8(0xF0)
		if v&1 != 0 {
			a = ^a
		}
		if v&2 != 0 {
			b = ^b
		}
		if v&4 != 0 {
			c = ^c
		}
		t[v] = a&b | a&c | b&c
		if v&8 != 0 {
			t[v] = ^t[v]
		}
	}
	return t
}()

// majMatcher finds the majority cones of one network. Its leaf and
// interior buffers and its per-node truth tables are reused from cone to
// cone, so matching allocates nothing per node.
type majMatcher struct {
	n      *Network
	refs   []int   // references per node, from every gate and output
	tt     []uint8 // truth table per node over the current cone's leaves
	leaves [3]int  // the current cone's leaves, in discovery order
	nl     int     // leaves found so far
	post   []int   // the current cone's interior, fanins before readers
}

// match reports whether the cone rooted at node root computes a majority
// of three leaf signals, and returns them with the output polarity. The
// cone may descend through single-fanout And/Or/Not/Buf/Maj/Mux interior
// nodes up to depth 3 below an And or Or root.
func (m *majMatcher) match(root int) (leaves [3]Signal, neg, ok bool) {
	if op := m.n.Nodes[root].Op; op != And && op != Or {
		return leaves, false, false
	}
	m.nl, m.post = 0, m.post[:0]
	if !m.collect(root, 3, true) || m.nl != 3 {
		return leaves, false, false
	}
	m.tt[m.leaves[0]], m.tt[m.leaves[1]], m.tt[m.leaves[2]] = 0xAA, 0xCC, 0xF0
	for _, i := range m.post {
		m.tt[i] = m.eval(&m.n.Nodes[i])
	}
	for v, want := range majVariants {
		if m.tt[root] == want {
			for k := range leaves {
				leaves[k] = MakeSignal(m.leaves[k], v&(1<<k) != 0)
			}
			return leaves, v&8 != 0, true
		}
	}
	return leaves, false, false
}

// collect adds the cone below idx, which sits depth levels above the
// deepest allowed leaf, to leaves and post. A node outside the cone (not
// expandable, shared, or at depth 0) is a leaf. It reports false when an
// interior node reads the constant or a fourth leaf turns up.
func (m *majMatcher) collect(idx, depth int, isRoot bool) bool {
	nd := &m.n.Nodes[idx]
	switch nd.Op {
	case And, Or, Not, Buf, Maj, Mux:
		if isRoot || (m.refs[idx] == 1 && depth > 0) {
			for _, f := range nd.Fanins {
				if f.Node() == 0 || !m.collect(f.Node(), depth-1, false) {
					return false
				}
			}
			m.post = append(m.post, idx)
			return true
		}
	}
	for _, l := range m.leaves[:m.nl] {
		if l == idx {
			return true
		}
	}
	if m.nl == 3 {
		return false
	}
	m.leaves[m.nl] = idx
	m.nl++
	return true
}

// eval returns the truth table of interior node nd from its fanins'.
func (m *majMatcher) eval(nd *Node) uint8 {
	get := func(s Signal) uint8 {
		if s.Neg() {
			return ^m.tt[s.Node()]
		}
		return m.tt[s.Node()]
	}
	switch nd.Op {
	case And:
		v := uint8(0xFF)
		for _, f := range nd.Fanins {
			v &= get(f)
		}
		return v
	case Or:
		v := uint8(0)
		for _, f := range nd.Fanins {
			v |= get(f)
		}
		return v
	case Not:
		return ^get(nd.Fanins[0])
	case Buf:
		return get(nd.Fanins[0])
	case Maj:
		a, b, c := get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2])
		return a&b | a&c | b&c
	default: // Mux
		s, hi, lo := get(nd.Fanins[0]), get(nd.Fanins[1]), get(nd.Fanins[2])
		return s&hi | ^s&lo
	}
}
