package netlist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/netlist"
)

func majPattern(n *netlist.Network, a, b, c netlist.Signal) netlist.Signal {
	ab := n.AddGate(netlist.And, a, b)
	ac := n.AddGate(netlist.And, a, c)
	bc := n.AddGate(netlist.And, b, c)
	return n.AddGate(netlist.Or, n.AddGate(netlist.Or, ab, ac), bc)
}

func TestRemajorizeDetectsMajority(t *testing.T) {
	n := netlist.New("m")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	n.AddOutput("f", majPattern(n, a, b, c))
	r := n.Remajorize()
	if r.OpCounts()[netlist.Maj] != 1 {
		t.Errorf("majority not detected: %v", r.OpCounts())
	}
	t1, _ := n.CollapseTT()
	t2, _ := r.CollapseTT()
	if !t1[0].Equal(t2[0]) {
		t.Error("function changed")
	}
}

func TestRemajorizeComplementedVariants(t *testing.T) {
	n := netlist.New("m")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	// minority = complement-output majority
	n.AddOutput("f", majPattern(n, a.Not(), b, c.Not()).Not())
	r := n.Remajorize()
	if r.OpCounts()[netlist.Maj] != 1 {
		t.Errorf("complemented majority not detected: %v", r.OpCounts())
	}
	t1, _ := n.CollapseTT()
	t2, _ := r.CollapseTT()
	if !t1[0].Equal(t2[0]) {
		t.Error("function changed")
	}
}

func TestRemajorizeMuxForm(t *testing.T) {
	// maj(a,b,c) = mux(a, b|c, b&c)
	n := netlist.New("m")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	orr := n.AddGate(netlist.Or, b, c)
	andd := n.AddGate(netlist.And, b, c)
	// An Or root around the mux keeps the root op in {And, Or}.
	f := n.AddGate(netlist.Or, n.AddGate(netlist.And, a, orr), andd)
	n.AddOutput("f", f)
	r := n.Remajorize()
	if r.OpCounts()[netlist.Maj] != 1 {
		t.Errorf("mux-form majority not detected: %v", r.OpCounts())
	}
}

func TestRemajorizeLeavesOthersAlone(t *testing.T) {
	n := netlist.New("m")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	f := n.AddGate(netlist.Or, n.AddGate(netlist.And, a, b), c) // not a majority
	x := n.AddGate(netlist.Xor, a, b)
	n.AddOutput("f", f)
	n.AddOutput("x", x)
	r := n.Remajorize()
	if r.OpCounts()[netlist.Maj] != 0 {
		t.Errorf("false majority detected: %v", r.OpCounts())
	}
	t1, _ := n.CollapseTT()
	t2, _ := r.CollapseTT()
	for i := range t1 {
		if !t1[i].Equal(t2[i]) {
			t.Errorf("output %d changed", i)
		}
	}
}

func TestRemajorizeSharedInteriorKept(t *testing.T) {
	// When an interior node has extra fanout, the cone must not be
	// collapsed (the shared node is still needed).
	n := netlist.New("m")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	ab := n.AddGate(netlist.And, a, b)
	ac := n.AddGate(netlist.And, a, c)
	bc := n.AddGate(netlist.And, b, c)
	f := n.AddGate(netlist.Or, n.AddGate(netlist.Or, ab, ac), bc)
	n.AddOutput("f", f)
	n.AddOutput("g", ab) // extra fanout on interior
	r := n.Remajorize()
	t1, _ := n.CollapseTT()
	t2, _ := r.CollapseTT()
	for i := range t1 {
		if !t1[i].Equal(t2[i]) {
			t.Errorf("output %d changed", i)
		}
	}
}

func TestRemajorizeRandomEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := netlist.RandomNetwork(r, 5, 40)
		m := n.Remajorize()
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		t1, _ := n.CollapseTT()
		t2, _ := m.CollapseTT()
		for i := range t1 {
			if !t1[i].Equal(t2[i]) {
				t.Fatalf("trial %d output %d changed", trial, i)
			}
		}
	}
}

// refRemajorize is the map-and-closure matcher Remajorize replaced, kept
// as the reference its output must equal node for node.
func refRemajorize(n *netlist.Network) *netlist.Network {
	refs := make([]int, len(n.Nodes))
	for _, nd := range n.Nodes {
		for _, f := range nd.Fanins {
			refs[f.Node()]++
		}
	}
	for _, o := range n.Outputs {
		refs[o.Sig.Node()]++
	}

	out := netlist.New(n.Name)
	remap := make([]netlist.Signal, len(n.Nodes))
	ms := func(s netlist.Signal) netlist.Signal { return remap[s.Node()].NotIf(s.Neg()) }

	for i, nd := range n.Nodes {
		switch nd.Op {
		case netlist.Const0:
			remap[i] = netlist.SigConst0
			continue
		case netlist.Input:
			remap[i] = out.AddInput(nd.Name)
			continue
		}
		if leaves, neg, ok := refMatchMaj(n, i, refs); ok {
			remap[i] = out.AddGate(netlist.Maj, ms(leaves[0]), ms(leaves[1]), ms(leaves[2])).NotIf(neg)
			continue
		}
		fs := make([]netlist.Signal, len(nd.Fanins))
		for k, f := range nd.Fanins {
			fs[k] = ms(f)
		}
		switch nd.Op {
		case netlist.Not:
			remap[i] = fs[0].Not()
		case netlist.Buf:
			remap[i] = fs[0]
		default:
			remap[i] = out.AddGate(nd.Op, fs...)
		}
	}
	for _, o := range n.Outputs {
		out.AddOutput(o.Name, ms(o.Sig))
	}
	return out.Clean()
}

// refMatchMaj is the reference matcher: a cone of single-fanout
// And/Or/Not/Buf/Maj/Mux nodes up to depth 3 below an And/Or root, over
// exactly three leaves, evaluated minterm by minterm.
func refMatchMaj(n *netlist.Network, root int, refs []int) ([3]netlist.Signal, bool, bool) {
	var leaves []int
	leafSet := map[int]bool{}
	ok := true
	var collect func(idx, depth int, isRoot bool)
	collect = func(idx, depth int, isRoot bool) {
		if !ok {
			return
		}
		nd := &n.Nodes[idx]
		expandable := nd.Op == netlist.And || nd.Op == netlist.Or || nd.Op == netlist.Not ||
			nd.Op == netlist.Buf || nd.Op == netlist.Maj || nd.Op == netlist.Mux
		if !isRoot && (!expandable || refs[idx] != 1 || depth == 0) {
			if !leafSet[idx] {
				if len(leaves) == 3 {
					ok = false
					return
				}
				leafSet[idx] = true
				leaves = append(leaves, idx)
			}
			return
		}
		if !expandable {
			ok = false
			return
		}
		for _, f := range nd.Fanins {
			if f.Node() == 0 {
				ok = false
				return
			}
			collect(f.Node(), depth-1, false)
		}
	}
	nd := &n.Nodes[root]
	if nd.Op != netlist.And && nd.Op != netlist.Or {
		return [3]netlist.Signal{}, false, false
	}
	collect(root, 3, true)
	if !ok || len(leaves) != 3 {
		return [3]netlist.Signal{}, false, false
	}

	var ttv uint8
	for m := 0; m < 8; m++ {
		val := map[int]bool{}
		for k, l := range leaves {
			val[l] = m&(1<<uint(k)) != 0
		}
		var eval func(s netlist.Signal) bool
		bad := false
		eval = func(s netlist.Signal) bool {
			if v, okv := val[s.Node()]; okv {
				return v != s.Neg()
			}
			cnd := &n.Nodes[s.Node()]
			var v bool
			switch cnd.Op {
			case netlist.And:
				v = true
				for _, f := range cnd.Fanins {
					v = v && eval(f)
				}
			case netlist.Or:
				v = false
				for _, f := range cnd.Fanins {
					v = v || eval(f)
				}
			case netlist.Not:
				v = !eval(cnd.Fanins[0])
			case netlist.Buf:
				v = eval(cnd.Fanins[0])
			case netlist.Maj:
				a, b := eval(cnd.Fanins[0]), eval(cnd.Fanins[1])
				c := eval(cnd.Fanins[2])
				v = (a && b) || (a && c) || (b && c)
			case netlist.Mux:
				if eval(cnd.Fanins[0]) {
					v = eval(cnd.Fanins[1])
				} else {
					v = eval(cnd.Fanins[2])
				}
			default:
				bad = true
			}
			return v != s.Neg()
		}
		r := eval(netlist.MakeSignal(root, false))
		if bad {
			return [3]netlist.Signal{}, false, false
		}
		if r {
			ttv |= 1 << uint(m)
		}
	}

	for variant := 0; variant < 16; variant++ {
		want := uint8(0)
		for m := 0; m < 8; m++ {
			a := (m&1 != 0) != (variant&1 != 0)
			b := (m&2 != 0) != (variant&2 != 0)
			c := (m&4 != 0) != (variant&4 != 0)
			v := (a && b) || (a && c) || (b && c)
			if v != (variant&8 != 0) {
				want |= 1 << uint(m)
			}
		}
		if ttv == want {
			var sigs [3]netlist.Signal
			for k, l := range leaves {
				sigs[k] = netlist.MakeSignal(l, variant&(1<<uint(k)) != 0)
			}
			return sigs, variant&8 != 0, true
		}
	}
	return [3]netlist.Signal{}, false, false
}

// majSoupNetwork is a random network rich in the cones Remajorize looks
// at: majorities written as And/Or sums of products and as muxes, under
// random polarities and Not/Buf chains, some with a constant or a fourth
// leaf, wide And/Or gates, Maj and Xor gates, and shared interiors (a
// gate reads one of the 12 most recent signals, so interior nodes often
// gain a second fanout).
func majSoupNetwork(r *rand.Rand, ni, ng int) *netlist.Network {
	n := netlist.New("soup")
	var sigs []netlist.Signal
	for i := 0; i < ni; i++ {
		sigs = append(sigs, n.AddInput(string(rune('a'+i))))
	}
	pick := func() netlist.Signal {
		var s netlist.Signal
		switch r.Intn(16) {
		case 0:
			s = netlist.SigConst0
		default:
			s = sigs[max(0, len(sigs)-12)+r.Intn(min(12, len(sigs)))]
		}
		return s.NotIf(r.Intn(2) == 0)
	}
	wrap := func(s netlist.Signal) netlist.Signal {
		switch r.Intn(4) {
		case 0:
			return n.AddGate(netlist.Not, s)
		case 1:
			return n.AddGate(netlist.Buf, s)
		}
		return s.NotIf(r.Intn(2) == 0)
	}
	for len(n.Nodes) < ni+1+ng {
		var s netlist.Signal
		switch r.Intn(8) {
		case 0, 1: // sum of products
			a, b, c := pick(), pick(), pick()
			ab := wrap(n.AddGate(netlist.And, a, b))
			ac := wrap(n.AddGate(netlist.And, a, c))
			bc := wrap(n.AddGate(netlist.And, b, c))
			if r.Intn(3) == 0 {
				s = n.AddGate(netlist.Or, ab, ac, bc)
			} else {
				s = n.AddGate(netlist.Or, wrap(n.AddGate(netlist.Or, ab, ac)), bc)
			}
		case 2: // mux form: a·(b+c) + b·c, or the product of sums
			a, b, c := pick(), pick(), pick()
			if r.Intn(2) == 0 {
				s = n.AddGate(netlist.Or, n.AddGate(netlist.And, a, n.AddGate(netlist.Or, b, c)), n.AddGate(netlist.And, b, c))
			} else {
				s = n.AddGate(netlist.And, n.AddGate(netlist.Or, a, b), n.AddGate(netlist.Or, a, c), n.AddGate(netlist.Or, b, c))
			}
		case 3:
			s = n.AddGate(netlist.Mux, pick(), pick(), pick())
		case 4:
			s = n.AddGate(netlist.Maj, pick(), pick(), pick())
		case 5:
			ops := []netlist.Op{netlist.And, netlist.Or, netlist.Xor}
			fs := make([]netlist.Signal, 2+r.Intn(4))
			for k := range fs {
				fs[k] = pick()
			}
			s = n.AddGate(ops[r.Intn(len(ops))], fs...)
		case 6:
			s = wrap(pick())
		default:
			s = n.AddGate([]netlist.Op{netlist.And, netlist.Or}[r.Intn(2)], pick(), pick())
		}
		sigs = append(sigs, s)
	}
	for o := 0; o < 6; o++ {
		n.AddOutput(string(rune('p'+o)), sigs[max(0, len(sigs)-1-3*o)])
	}
	return n
}

// sameNetwork fails unless got equals want node for node: name, ops,
// fanins, node names, inputs and outputs.
func sameNetwork(t *testing.T, what string, got, want *netlist.Network) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.Name != want.Name || len(got.Nodes) != len(want.Nodes) ||
		len(got.Inputs) != len(want.Inputs) || len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: %q with %d nodes, %d/%d ports; want %q with %d, %d/%d", what,
			got.Name, len(got.Nodes), len(got.Inputs), len(got.Outputs),
			want.Name, len(want.Nodes), len(want.Inputs), len(want.Outputs))
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.Op != w.Op || g.Name != w.Name || len(g.Fanins) != len(w.Fanins) {
			t.Fatalf("%s: node %d is %v %q %v, want %v %q %v", what, i, g.Op, g.Name, g.Fanins, w.Op, w.Name, w.Fanins)
		}
		for k := range w.Fanins {
			if g.Fanins[k] != w.Fanins[k] {
				t.Fatalf("%s: node %d fanins %v, want %v", what, i, g.Fanins, w.Fanins)
			}
		}
	}
	for i := range want.Inputs {
		if got.Inputs[i] != want.Inputs[i] {
			t.Fatalf("%s: input %d is node %d, want %d", what, i, got.Inputs[i], want.Inputs[i])
		}
	}
	for i := range want.Outputs {
		if got.Outputs[i] != want.Outputs[i] {
			t.Fatalf("%s: output %d is %v, want %v", what, i, got.Outputs[i], want.Outputs[i])
		}
	}
}

// TestRemajorizeMatchesReference pins Remajorize to the reference
// matcher, node for node, on the 14 MCNC stand-ins and on random
// networks built around majority cones.
func TestRemajorizeMatchesReference(t *testing.T) {
	for _, name := range mcnc.Names() {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		sameNetwork(t, name, n.Remajorize(), refRemajorize(n))
	}
	r := rand.New(rand.NewSource(29))
	matched := 0
	for trial := 0; trial < 300; trial++ {
		n := majSoupNetwork(r, 3+r.Intn(4), 10+r.Intn(60))
		want := refRemajorize(n)
		sameNetwork(t, fmt.Sprintf("trial %d", trial), n.Remajorize(), want)
		matched += want.OpCounts()[netlist.Maj] - n.Clean().OpCounts()[netlist.Maj]
	}
	if matched < 150 {
		t.Fatalf("random networks recovered only %d majorities: the test lost its coverage", matched)
	}
}

var remajSink *netlist.Network

// BenchmarkRemajorize tracks Remajorize's time and allocations on clma,
// the largest MCNC stand-in (run with -benchmem).
func BenchmarkRemajorize(b *testing.B) {
	n, err := mcnc.Generate("clma")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		remajSink = n.Remajorize()
	}
}

// TestRemajorizeAllocsFlat fails when Remajorize goes back to allocating
// per gate: its allocations on clma (4468 gates) must stay within a few
// of those on b9 (163 gates).
func TestRemajorizeAllocsFlat(t *testing.T) {
	allocs := map[string]float64{}
	for _, name := range []string{"b9", "clma"} {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		allocs[name] = testing.AllocsPerRun(5, func() { n.Remajorize() })
		t.Logf("%s: %d gates, %.0f allocations per Remajorize", name, n.NumGates(), allocs[name])
	}
	if allocs["clma"] > allocs["b9"]+8 {
		t.Errorf("Remajorize allocates %.0f times on clma against %.0f on b9: per-gate allocation is back", allocs["clma"], allocs["b9"])
	}
}
