package bench

// Mesh: a synthetic large-design generator for scale checks.
// The circuit is a rows×columns grid of heterogeneous tiles — carry-chain
// adder tiles (majority logic: the MIG candidate flow wins them),
// redundant cube-logic control tiles (and/or SOP structure the AIG resyn2
// flow factors hardest) and parity tiles — with each tile wired to its
// own and its neighbor columns one row up. Tile flavor is assigned by
// column block, so the regions a min-cut partitioner discovers are
// representationally homogeneous and mixed synthesis has a real choice to
// make per partition. Generation is deterministic: Mesh(n) emits the same
// netlist in every process, so the benchmark's mesh workloads and the CI
// mesh100k job can byte-compare results across worker counts.

import (
	"fmt"

	"repro/logic"
)

// meshRng is splitmix64 — the same deterministic generator the partitioner
// uses for its seeded choices.
type meshRng uint64

func (s *meshRng) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *meshRng) intn(n int) int { return int(s.next() % uint64(n)) }

// tileWidth is the number of signals a tile consumes.
const tileWidth = 16

// meshRows bounds the grid height (and so the circuit depth); meshes grow
// wide, not deep.
const meshRows = 12

// Mesh generates a tiled heterogeneous circuit with at least the given
// number of gates (default 1024 for nodes <= 0).
func Mesh(nodes int) *logic.Netlist {
	if nodes <= 0 {
		nodes = 1024
	}
	net := logic.NewNetwork(fmt.Sprintf("mesh%d", nodes))
	rng := meshRng(0x6d657368) // "mesh"

	// ~30 gates per tile on average; the grid is meshRows deep and as
	// wide as needed, with extra rows appended below if the mix of tile
	// flavors leaves the count short of the target.
	tiles := nodes/30 + 1
	cols := (tiles + meshRows - 1) / meshRows
	if cols < 3 {
		cols = 3
	}

	numPI := cols * tileWidth / 2
	if numPI > 4096 {
		numPI = 4096
	}
	pis := make([]logic.Signal, numPI)
	for i := range pis {
		pis[i] = net.AddInput(fmt.Sprintf("x%d", i))
	}

	// flavor assigns a tile implementation by column block: left third
	// adders, middle third cube logic, right third parity.
	flavor := func(c int) int { return 3 * c / cols }

	prev := make([][]logic.Signal, cols) // previous row's outputs per column
	var last []logic.Signal
	for r := 0; r < meshRows || net.Size() < nodes; r++ {
		cur := make([][]logic.Signal, cols)
		for c := 0; c < cols; c++ {
			// Candidate feeds: same and neighbor columns one row up,
			// falling back to (and always salted with) primary inputs.
			var feed []logic.Signal
			for d := -1; d <= 1; d++ {
				if c+d >= 0 && c+d < cols {
					feed = append(feed, prev[c+d]...)
				}
			}
			in := make([]logic.Signal, tileWidth)
			for i := range in {
				if len(feed) > 0 && i%4 != 3 {
					in[i] = feed[rng.intn(len(feed))]
				} else {
					in[i] = pis[rng.intn(len(pis))]
				}
			}
			var outs []logic.Signal
			switch flavor(c) {
			case 0:
				outs = adderTile(net, in)
			case 1:
				outs = cubeTile(net, in, &rng)
			default:
				outs = parityTile(net, in)
			}
			cur[c] = outs
			last = append(last, outs...)
		}
		prev = cur
	}

	// Fold the final row (every tile's outputs feed it, so nothing is
	// dead) into a handful of parity outputs per column region.
	var frontier []logic.Signal
	for _, outs := range prev {
		frontier = append(frontier, outs...)
	}
	if len(frontier) == 0 {
		frontier = last
	}
	for len(frontier) > tileWidth {
		var next []logic.Signal
		for i := 0; i+1 < len(frontier); i += 2 {
			next = append(next, net.AddGate(logic.OpXor, frontier[i], frontier[i+1]))
		}
		if len(frontier)%2 == 1 {
			next = append(next, frontier[len(frontier)-1])
		}
		frontier = next
	}
	for i, s := range frontier {
		net.AddOutput(fmt.Sprintf("y%d", i), s)
	}
	return net
}

// adderTile is a two-pass ripple-carry adder over the tile inputs: a
// majority carry chain with XOR sums — the structure majority-inverter
// optimization is built for.
func adderTile(net *logic.Netlist, in []logic.Signal) []logic.Signal {
	h := len(in) / 2
	a, b := in[:h], in[h:2*h]
	var outs []logic.Signal
	carry := a[0]
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < h; i++ {
			sum := net.AddGate(logic.OpXor, a[i], b[i], carry)
			carry = net.AddGate(logic.OpMaj, a[i], b[i], carry)
			outs = append(outs, sum)
		}
		// Second pass adds the sums to the shifted inputs.
		a = outs[len(outs)-h:]
	}
	return append(outs[len(outs)-h:], carry)
}

// cubeTile is redundant two-level cube logic: each output ORs a handful of
// three-literal AND cubes drawn from a shared literal pool. The redundancy
// is factorable — the kind of and/or structure the AIG flow's rewriting
// and SOP refactoring compress hardest.
func cubeTile(net *logic.Netlist, in []logic.Signal, rng *meshRng) []logic.Signal {
	lit := func() logic.Signal {
		s := in[rng.intn(len(in))]
		if rng.intn(2) == 1 {
			return s.Not()
		}
		return s
	}
	var outs []logic.Signal
	for o := 0; o < 10; o++ {
		// A shared head literal across this output's cubes makes the OR
		// factorable: f = h·c0 + h·c1 + ... = h·(c0+c1+...).
		head := lit()
		var cubes []logic.Signal
		for c := 0; c < 4; c++ {
			cubes = append(cubes, net.AddGate(logic.OpAnd, head, lit(), lit()))
		}
		outs = append(outs, net.AddGate(logic.OpOr, cubes...))
	}
	return outs
}

// parityTile folds the inputs through XOR trees, two staggered layers.
func parityTile(net *logic.Netlist, in []logic.Signal) []logic.Signal {
	var outs []logic.Signal
	for i := 0; i+3 < len(in); i += 2 {
		t := net.AddGate(logic.OpXor, in[i], in[i+1], in[i+2])
		outs = append(outs, net.AddGate(logic.OpXor, t, in[i+3]))
	}
	return outs
}
