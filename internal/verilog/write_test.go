package verilog

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// pinNetwork holds every op, complemented and constant fanins, a dead
// gate, constant outputs, outputs driven by an input in both polarities,
// and duplicate, empty and unsanitized port names.
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

// TestWriteOutputPinned pins Write's bytes: the SHA-256 over the 14 MCNC
// stand-ins and pinNetwork. It may change only with an intended change of
// the Verilog Write emits.
func TestWriteOutputPinned(t *testing.T) {
	const want = "1c1576c844d8f4c9f82169cd4aa7296984d75642eb4db37c4cf9db477193853c"
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

// TestWriteNameCollisions writes networks whose port names equal the wire
// names Write generates (gate i's w<i>) and checks that the Verilog reads
// back as the same function.
func TestWriteNameCollisions(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Network
	}{
		{"wire named like an input", func() *netlist.Network {
			n := netlist.New("g")
			w4, w3 := n.AddInput("w4"), n.AddInput("w3")
			n.AddInput("x")
			n.AddOutput("y", n.AddGate(netlist.Xor, n.AddGate(netlist.And, w4, w3), w4))
			return n
		}},
		{"wire named like an output", func() *netlist.Network {
			n := netlist.New("o")
			a, b := n.AddInput("a"), n.AddInput("b")
			and := n.AddGate(netlist.And, a, b)
			n.AddOutput("w3", n.AddGate(netlist.Or, a, b))
			n.AddOutput("z", and)
			return n
		}},
		{"renamed wire skips a port name", func() *netlist.Network {
			n := netlist.New("s")
			a, b := n.AddInput("w3"), n.AddInput("w3_2")
			n.AddOutput("y", n.AddGate(netlist.Or, n.AddGate(netlist.And, a, b), a.Not()))
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
				t.Logf("Verilog:\n%s", src)
			}
		})
	}
}

// TestWriteAllocsFlat pins that Write allocates per network, not per
// gate: on the remajorized clma (4340 gates, mostly majorities) it may
// take only a few more allocations than on b9 (163 gates).
func TestWriteAllocsFlat(t *testing.T) {
	allocs := map[string]float64{}
	for _, name := range []string{"b9", "clma"} {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		r := n.Remajorize()
		allocs[name] = testing.AllocsPerRun(5, func() { Write(r) })
		t.Logf("%s: %d gates, %.0f allocations per Write", name, r.NumGates(), allocs[name])
	}
	if allocs["clma"] > allocs["b9"]+8 {
		t.Errorf("Write allocates %.0f times on clma against %.0f on b9: per-gate allocation is back", allocs["clma"], allocs["b9"])
	}
}
