package part

// Window extraction and stitch-back. A window lifts one partition into a
// self-contained netlist: every signal entering the partition (a primary
// input or a gate owned by another partition) becomes a window primary
// input, and every gate whose output leaves the partition (feeding another
// partition or a primary output) becomes a window primary output. Boundary
// signals are named "w_<node>" after the original node index, so stitching
// matches them by name and survives any input/output reordering an
// optimizer might perform (none of ours do, but the contract is cheap).
//
// Stitching is gate-granular: windows are replayed into the output netlist
// a node at a time, each window advancing as far as its resolved boundary
// inputs allow, in rounds over the windows in partition order. The
// partition quotient graph may be cyclic (gate-level acyclicity does not
// imply partition-level acyclicity), and the interleaved replay handles
// exactly that; it only deadlocks if an optimizer makes a window output
// structurally depend on a boundary input outside its original cone, which
// stitch reports as an error rather than mis-building.

import (
	"fmt"
	"strconv"

	"repro/internal/netlist"
)

// Window is one partition lifted into a self-contained sub-network.
type Window struct {
	// Part is the partition index this window came from.
	Part int
	// Net is the lifted sub-network: inputs "w_<node>" for boundary
	// signals entering the partition, outputs "w_<node>" for gates whose
	// value leaves it.
	Net *netlist.Network
	// Inputs and Outputs map the window's PI/PO positions back to
	// original node indices.
	Inputs  []int32
	Outputs []int32
}

// boundaryName names the boundary net of an original node.
func boundaryName(node int32) string { return "w_" + strconv.Itoa(int(node)) }

// extractWindows lifts every non-empty partition of assign into a Window.
// Windows come back ordered by partition index; gates keep their original
// relative order inside each window.
func extractWindows(n *netlist.Network, assign []int32, k int) []*Window {
	type builder struct {
		win   *Window
		seen  map[int32]netlist.Signal // original boundary node -> window PI signal
		remap []netlist.Signal         // original node -> window signal (gates of this part)
	}
	builders := make([]*builder, k)
	getb := func(p int32) *builder {
		if builders[p] == nil {
			builders[p] = &builder{
				win: &Window{
					Part: int(p),
					Net:  netlist.New(n.Name + "_p" + strconv.Itoa(int(p))),
				},
				seen:  map[int32]netlist.Signal{},
				remap: make([]netlist.Signal, len(n.Nodes)),
			}
		}
		return builders[p]
	}

	// A gate's value must become a window output when it feeds a primary
	// output or a gate in another partition.
	leaves := make([]bool, len(n.Nodes))
	for i, nd := range n.Nodes {
		if assign[i] < 0 {
			continue
		}
		for _, f := range nd.Fanins {
			src := f.Node()
			if sp := assign[src]; sp >= 0 && sp != assign[i] {
				leaves[src] = true
			}
		}
	}
	for _, o := range n.Outputs {
		if assign[o.Sig.Node()] >= 0 {
			leaves[o.Sig.Node()] = true
		}
	}

	fanins := make([]netlist.Signal, 0, 8)
	for i, nd := range n.Nodes {
		p := assign[i]
		if p < 0 {
			continue
		}
		b := getb(p)
		fanins = fanins[:0]
		for _, f := range nd.Fanins {
			src := int32(f.Node())
			var s netlist.Signal
			switch {
			case src == 0:
				s = netlist.SigConst0
			case assign[src] == p:
				s = b.remap[src]
			default: // primary input or another partition's gate
				pi, ok := b.seen[src]
				if !ok {
					pi = b.win.Net.AddInput(boundaryName(src))
					b.seen[src] = pi
					b.win.Inputs = append(b.win.Inputs, src)
				}
				s = pi
			}
			fanins = append(fanins, s.NotIf(f.Neg()))
		}
		b.remap[i] = b.win.Net.AddGate(nd.Op, fanins...)
		if leaves[i] {
			b.win.Net.AddOutput(boundaryName(int32(i)), b.remap[i])
			b.win.Outputs = append(b.win.Outputs, int32(i))
		}
	}

	var windows []*Window
	for _, b := range builders {
		if b != nil {
			windows = append(windows, b.win)
		}
	}
	return windows
}

// stitch rebuilds the whole network from the optimized window bodies.
// optimized[i] replaces windows[i].Net and must keep the boundary
// interface (inputs/outputs named "w_<node>"). The replay is serial and
// ordered, so the result is a pure function of its arguments — worker
// counts upstream cannot change it.
func stitch(n *netlist.Network, windows []*Window, optimized []*netlist.Network) (*netlist.Network, error) {
	out := netlist.New(n.Name)

	// extern[v] is the stitched signal of original boundary node v.
	extern := make([]netlist.Signal, len(n.Nodes))
	haveExt := make([]bool, len(n.Nodes))
	extern[0], haveExt[0] = netlist.SigConst0, true
	for _, in := range n.Inputs {
		extern[in] = out.AddInput(n.Nodes[in].Name)
		haveExt[in] = true
	}

	// Per-window replay state.
	type wstate struct {
		o     *netlist.Network
		win   *Window
		remap []netlist.Signal
		done  []bool
		// inOrig[node] is the original node behind an Input node of o.
		inOrig  []int32
		outDone []bool
		left    int // nodes not yet replayed
	}
	states := make([]*wstate, len(windows))
	for i, w := range windows {
		o := optimized[i]
		byName := make(map[string]int32, len(w.Inputs)+len(w.Outputs))
		for _, v := range w.Inputs {
			byName[boundaryName(v)] = v
		}
		ws := &wstate{
			o:      o,
			win:    w,
			remap:  make([]netlist.Signal, len(o.Nodes)),
			done:   make([]bool, len(o.Nodes)),
			inOrig: make([]int32, len(o.Nodes)),
			left:   len(o.Nodes),
		}
		for _, idx := range o.Inputs {
			v, ok := byName[o.Nodes[idx].Name]
			if !ok {
				return nil, fmt.Errorf("part: window %d grew unknown input %q", w.Part, o.Nodes[idx].Name)
			}
			ws.inOrig[idx] = v
		}
		outSeen := make(map[string]bool, len(w.Outputs))
		for _, po := range o.Outputs {
			outSeen[po.Name] = true
		}
		for _, v := range w.Outputs {
			if !outSeen[boundaryName(v)] {
				return nil, fmt.Errorf("part: window %d lost output %q", w.Part, boundaryName(v))
			}
		}
		ws.outDone = make([]bool, len(o.Outputs))
		states[i] = ws
	}

	// Interleaved replay: rounds over the windows, each advancing every
	// node whose dependencies are met, until all windows land or no
	// progress is possible.
	outOrig := func(ws *wstate, j int) (int32, error) {
		name := ws.o.Outputs[j].Name
		if len(name) > 2 && name[:2] == "w_" {
			v, err := strconv.Atoi(name[2:])
			if err == nil {
				return int32(v), nil
			}
		}
		return 0, fmt.Errorf("part: window %d grew unknown output %q", ws.win.Part, name)
	}
	fanins := make([]netlist.Signal, 0, 8)
	for {
		progress := false
		remaining := 0
		for _, ws := range states {
			if ws.left == 0 {
				continue
			}
			for idx, nd := range ws.o.Nodes {
				if ws.done[idx] {
					continue
				}
				switch nd.Op {
				case netlist.Const0:
					ws.remap[idx] = netlist.SigConst0
				case netlist.Input:
					v := ws.inOrig[idx]
					if !haveExt[v] {
						continue // boundary signal not stitched yet
					}
					ws.remap[idx] = extern[v]
				default:
					ready := true
					fanins = fanins[:0]
					for _, f := range nd.Fanins {
						if !ws.done[f.Node()] {
							ready = false
							break
						}
						fanins = append(fanins, ws.remap[f.Node()].NotIf(f.Neg()))
					}
					if !ready {
						continue
					}
					ws.remap[idx] = out.AddGate(nd.Op, fanins...)
				}
				ws.done[idx] = true
				ws.left--
				progress = true
			}
			for j, po := range ws.o.Outputs {
				if ws.outDone[j] || !ws.done[po.Sig.Node()] {
					continue
				}
				v, err := outOrig(ws, j)
				if err != nil {
					return nil, err
				}
				extern[v] = ws.remap[po.Sig.Node()].NotIf(po.Sig.Neg())
				haveExt[v] = true
				ws.outDone[j] = true
				progress = true
			}
			remaining += ws.left
		}
		if remaining == 0 {
			break
		}
		if !progress {
			return nil, fmt.Errorf("part: stitch deadlock — an optimized window depends on a boundary input outside its original cone (%d nodes pending)", remaining)
		}
	}

	for _, o := range n.Outputs {
		src := o.Sig.Node()
		if !haveExt[src] {
			return nil, fmt.Errorf("part: output %q driver never stitched", o.Name)
		}
		out.AddOutput(o.Name, extern[src].NotIf(o.Sig.Neg()))
	}
	return out.Clean(), nil
}
