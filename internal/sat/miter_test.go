package sat

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// xorChain computes the parity of len(order) inputs as a chain of
// two-input XORs that takes the inputs in the given order.
func xorChain(name string, order []int) *netlist.Network {
	n := netlist.New(name)
	ins := make([]netlist.Signal, len(order))
	for i := range ins {
		ins[i] = n.AddInput("x")
	}
	acc := ins[order[0]]
	for _, k := range order[1:] {
		acc = n.AddGate(netlist.Xor, acc, ins[k])
	}
	n.AddOutput("p", acc)
	return n
}

// TestSweepProvesBelowWindow: two parity chains over opposite input
// orders share no intermediate function, so their roots are the only
// candidate, and the equivalence closes only through the inputs in the
// middle of the chains, which the window around the roots leaves free.
// The full-cone stage must prove it in the sweep, which leaves the output
// pair discharged by substitution.
func TestSweepProvesBelowWindow(t *testing.T) {
	const bits = 10
	if bits < 2*sweepWindow+2 {
		t.Fatalf("%d-input chains do not reach below a %d-level window", bits, sweepWindow)
	}
	fwd, rev := make([]int, bits), make([]int, bits)
	for i := range fwd {
		fwd[i], rev[i] = i, bits-1-i
	}
	res, err := Miter(context.Background(), xorChain("a", fwd), xorChain("b", rev))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unsat || res.ProvedPairs != 1 || res.FinalConflicts != 0 {
		t.Fatalf("got %v with %d proved pairs and %d final conflicts, want unsat, 1, 0",
			res.Status, res.ProvedPairs, res.FinalConflicts)
	}
}

// rareDiff returns two networks over 43 inputs that differ in one
// mid-cone node: b's m also XORs in an AND chain over 20 two-input XORs,
// which is 1 on one input pattern in 2^20, so the seed words miss it.
// Forcing the chain to 1 forces each XOR to 1 but none of its inputs, so
// the inputs under the window stay unassigned. Both outputs XOR m with
// another input, so the difference reaches them.
func rareDiff() (a, b *netlist.Network, ma, mb int) {
	build := func(name string, rare bool) (*netlist.Network, int) {
		n := netlist.New(name)
		x := make([]netlist.Signal, 40)
		for i := range x {
			x[i] = n.AddInput("x")
		}
		y0, y1, z := n.AddInput("y0"), n.AddInput("y1"), n.AddInput("z")
		fanins := []netlist.Signal{y0, y1}
		if rare {
			t := n.AddGate(netlist.Xor, x[0], x[1])
			for i := 2; i < len(x); i += 2 {
				t = n.AddGate(netlist.And, t, n.AddGate(netlist.Xor, x[i], x[i+1]))
			}
			fanins = append(fanins, t)
		}
		m := n.AddGate(netlist.Xor, fanins...)
		n.AddOutput("o", n.AddGate(netlist.Xor, m, z))
		return n, m.Node()
	}
	a, ma = build("a", false)
	b, mb = build("b", true)
	return a, b, ma, mb
}

// TestSweepRefutesMidConeDifference: a mid-cone difference the seed words
// miss becomes a candidate, the full-cone stage refutes it, and the final
// counterexample replays on both networks.
func TestSweepRefutesMidConeDifference(t *testing.T) {
	a, b, ma, mb := rareDiff()
	ha, hb := seedHashes(a, b)
	if ha[ma] != hb[mb] {
		t.Fatal("the seed words tell the mid-cone pair apart; the test needs a rarer difference")
	}
	res, err := Miter(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Sat {
		t.Fatalf("status %v, want sat", res.Status)
	}
	words := make([]uint64, len(res.Inputs))
	for i, v := range res.Inputs {
		if v {
			words[i] = 1
		}
	}
	if (a.OutputWords(words)[0]^b.OutputWords(words)[0])&1 == 0 {
		t.Fatalf("counterexample %v does not distinguish the networks", res.Inputs)
	}
}

// TestMiterDeterministic: two runs on one pair return identical results,
// counterexample included.
func TestMiterDeterministic(t *testing.T) {
	a, b, _, _ := rareDiff()
	pairs := [][2]*netlist.Network{{a, b}}
	for _, name := range []string{"C1908", "dalu"} {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, [2]*netlist.Network{n, n.Remajorize()})
	}
	for k, p := range pairs {
		first, err := Miter(context.Background(), p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		second, err := Miter(context.Background(), p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("pair %d: %+v then %+v", k, first, second)
		}
	}
}

var miterSink MiterResult

// BenchmarkMiter times one equivalence check of the clma stand-in against
// its remajorized copy, the sweep's largest MCNC pair.
func BenchmarkMiter(b *testing.B) {
	n, err := mcnc.Generate("clma")
	if err != nil {
		b.Fatal(err)
	}
	r := n.Remajorize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if miterSink, err = Miter(context.Background(), n, r); err != nil {
			b.Fatal(err)
		}
	}
	if miterSink.Status != Unsat {
		b.Fatalf("status %v, want unsat", miterSink.Status)
	}
}
