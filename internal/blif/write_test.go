package blif

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// pinNetwork holds every op, complemented and constant fanins, a dead
// gate, constant outputs, outputs driven by an input in both polarities,
// and duplicate and empty port names.
func pinNetwork() *netlist.Network {
	n := netlist.New("")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("")
	d := n.AddInput("a")
	e := n.AddInput("e[0]")
	and := n.AddGate(netlist.And, a, b.Not())
	or := n.AddGate(netlist.Or, a.Not(), c, d)
	xor := n.AddGate(netlist.Xor, a, b, c, e.Not())
	xnor := n.AddGate(netlist.Xnor, and, or.Not())
	nand := n.AddGate(netlist.Nand, xor, d, e)
	nor := n.AddGate(netlist.Nor, nand.Not(), c)
	not := n.AddGate(netlist.Not, nor)
	buf := n.AddGate(netlist.Buf, not.Not())
	maj := n.AddGate(netlist.Maj, buf, xnor.Not(), netlist.SigConst1)
	mux := n.AddGate(netlist.Mux, e.Not(), maj, netlist.SigConst0)
	n.AddGate(netlist.And, a, b, c) // dead
	wide := n.AddGate(netlist.Or, and.Not(), xor, mux.Not(), a, e)
	n.AddOutput("y", mux)
	n.AddOutput("y", maj.Not())
	n.AddOutput("", xor)
	n.AddOutput("zero", netlist.SigConst0)
	n.AddOutput("one", netlist.SigConst1)
	n.AddOutput("pass", e)
	n.AddOutput("inv", a.Not())
	n.AddOutput("a", wide)
	n.AddOutput("", wide.Not())
	return n
}

// TestWriteOutputPinned pins Write's bytes on the flat inputs the
// benchmark encodes (And/Or/Xor/Nand/Nor/Mux/Buf/Not covers and
// constants), which the optimizer pins never reach: the SHA-256 over the
// 14 MCNC stand-ins and pinNetwork. It may change only with an intended
// change of the format Write emits.
func TestWriteOutputPinned(t *testing.T) {
	const want = "db59f918d9599847da0c1bbf5f7a3a2c4ca99b4ec6570504fb1b6efe80747bcf"
	h := sha256.New()
	for _, name := range mcnc.Names() {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s", name, Write(n))
	}
	fmt.Fprintf(h, "pin\n%s", Write(pinNetwork()))
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("sha256 %s, want %s", got, want)
	}
}

// sameFunction checks that b computes a's outputs on every input
// pattern; both must have at most 6 inputs.
func sameFunction(t *testing.T, a, b *netlist.Network) {
	t.Helper()
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		t.Fatalf("interface %d/%d, want %d/%d", b.NumInputs(), b.NumOutputs(), a.NumInputs(), a.NumOutputs())
	}
	patterns := [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}
	wa, wb := a.OutputWords(patterns[:a.NumInputs()]), b.OutputWords(patterns[:b.NumInputs()])
	mask := ^uint64(0) >> (64 - (1 << a.NumInputs()))
	for i := range wa {
		if d := (wa[i] ^ wb[i]) & mask; d != 0 {
			t.Errorf("output %d (%s) differs on minterms %b", i, a.Outputs[i].Name, d)
		}
	}
}

// TestWriteNameCollisions writes networks whose port names equal names
// Write generates (gate i's n<i>, an inverter's <name>_inv, the constant
// nets const0 and const1) and checks that the BLIF reads back as the same
// function.
func TestWriteNameCollisions(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Network
	}{
		{"gate named like an input", func() *netlist.Network {
			n := netlist.New("g")
			n4, n3 := n.AddInput("n4"), n.AddInput("n3")
			n.AddInput("x")
			n.AddOutput("y", n.AddGate(netlist.Xor, n.AddGate(netlist.And, n4, n3), n4))
			return n
		}},
		{"gate named like an output", func() *netlist.Network {
			n := netlist.New("o")
			a, b := n.AddInput("a"), n.AddInput("b")
			and := n.AddGate(netlist.And, a, b)
			n.AddOutput("n3", n.AddGate(netlist.Or, a, b))
			n.AddOutput("z", and)
			return n
		}},
		{"inverter named like an input", func() *netlist.Network {
			n := netlist.New("i")
			a, ai := n.AddInput("a"), n.AddInput("a_inv")
			n.AddOutput("y", n.AddGate(netlist.And, a.Not(), ai))
			return n
		}},
		{"gate inverter named like an output", func() *netlist.Network {
			n := netlist.New("v")
			a, b := n.AddInput("a"), n.AddInput("b")
			g := n.AddGate(netlist.And, a, b)
			n.AddOutput("n3_inv", n.AddGate(netlist.Or, g.Not(), a))
			n.AddOutput("z", g.Not())
			return n
		}},
		{"renamed gate skips a port name", func() *netlist.Network {
			n := netlist.New("r")
			a, b := n.AddInput("n3"), n.AddInput("n3_2")
			g := n.AddGate(netlist.And, a, b)
			n.AddOutput("y", n.AddGate(netlist.Or, g.Not(), a.Not()))
			n.AddOutput("n3_3_inv", g)
			return n
		}},
		{"constants named like inputs", func() *netlist.Network {
			n := netlist.New("c")
			c0, c1 := n.AddInput("const0"), n.AddInput("const1")
			n.AddOutput("y", n.AddGate(netlist.And, c1, c0.Not(), netlist.SigConst1))
			n.AddOutput("z", n.AddGate(netlist.Or, c0, netlist.SigConst0))
			return n
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build()
			src := Write(n)
			back, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			sameFunction(t, n, back)
			if t.Failed() {
				t.Logf("BLIF:\n%s", src)
			}
		})
	}
}

var writeSink string

// BenchmarkWrite tracks Write's time and allocations on clma, the largest
// MCNC stand-in (run with -benchmem).
func BenchmarkWrite(b *testing.B) {
	n, err := mcnc.Generate("clma")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeSink = Write(n)
	}
}

// TestWriteAllocsFlat fails when Write goes back to allocating per gate:
// its allocations on clma (4468 gates) must stay within a few of those on
// b9 (163 gates).
func TestWriteAllocsFlat(t *testing.T) {
	allocs := map[string]float64{}
	for _, name := range []string{"b9", "clma"} {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		allocs[name] = testing.AllocsPerRun(5, func() { Write(n) })
		t.Logf("%s: %d gates, %.0f allocations per Write", name, n.NumGates(), allocs[name])
	}
	if allocs["clma"] > allocs["b9"]+8 {
		t.Errorf("Write allocates %.0f times on clma against %.0f on b9: per-gate allocation is back", allocs["clma"], allocs["b9"])
	}
}
