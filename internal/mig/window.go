package mig

// Window-parallel cut rewriting.
//
// RewritePass is inherently sequential: each node's candidates are probed
// against the partially built output graph, so node n's decision depends on
// every decision before it. WindowRewritePass restructures the pass into
// two phases so the expensive part parallelizes:
//
//  1. Evaluation (parallel). The live nodes are partitioned into windows —
//     maximal fanout-free cones (every node with a single live fanout
//     belongs to the window of its unique parent; multi-fanout nodes and
//     output drivers root their own window). Windows are distributed over a
//     worker pool. The workers share the input graph, which none of them
//     writes: per window, a worker dry-probes every cut candidate of every
//     window node against the input graph plus the window's winners so
//     far, which stay in the worker's probe as virtual nodes until the
//     window ends. A window's decisions therefore depend only on the input
//     graph and the window's own earlier decisions — never on another
//     window or on worker scheduling.
//
//  2. Commit (serial). A single topological rebuild replays the chosen
//     candidate of every node with full structural hashing, exactly as a
//     serial run of the same pass would. The output is byte-identical for
//     every worker count, including 1.
//
// Quality differs slightly from RewritePass (candidates are costed against
// the input graph plus window-local context instead of the partially built
// output), but functional equivalence holds by the same argument: every
// replacement realizes the node's cut function over equivalent leaf
// signals.
//
// Candidates are scored by DAG-aware net gain: nodes the probe adds
// (after structural hashing) minus the interior nodes of the replaced cut
// cone that lose their last reference (freedBy, an MFFC-style dereference
// that first protects everything the new cone reuses). Without the freed
// credit a structurally different replacement could never displace the
// incumbent structure — the incumbent re-derives itself for free through
// the strash while the replacement pays full price, which matters most
// for rewrite-npn, whose database implementations rarely share structure
// with the heuristically built graph.

import (
	"context"
	"slices"

	"repro/internal/cut"
	"repro/internal/opt"
)

// windowChoice records the evaluation result for one node: the cut index
// that won (-1 keeps the default reconstruction), the cut function, and
// which synthesizer produced the winner (npn: the exact database instead
// of the heuristic synthW). The commit phase replays exactly this choice.
type windowChoice struct {
	cutIdx int32
	nvars  int32
	w      uint64
	npn    bool
}

// Windows partitions the live majority nodes into maximal fanout-free
// cones, each in topological (index) order, ordered by first member. This
// is the unit of work of the window-parallel passes.
func (m *MIG) Windows() [][]int {
	refs := m.FanoutCounts()
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	return m.windows(live, refs)
}

func (m *MIG) windows(live []bool, refs []int) [][]int {
	// wroot[i] is the root of i's window: nodes referenced once belong to
	// their unique parent's window, so scanning parents in descending
	// index order propagates roots down whole cones.
	wrp := takeInts(len(m.nodes))
	wroot := *wrp
	defer releaseInts(wrp)
	for i := range wroot {
		wroot[i] = i
	}
	for i := len(m.nodes) - 1; i >= 0; i-- {
		if !live[i] || m.nodes[i].kind != kindMaj {
			continue
		}
		for _, f := range m.nodes[i].fanin {
			fn := f.Node()
			if live[fn] && m.nodes[fn].kind == kindMaj && refs[fn] == 1 {
				wroot[fn] = wroot[i]
			}
		}
	}
	sp := takeInts(len(m.nodes))
	slot := *sp
	defer releaseInts(sp)
	for i := range slot {
		slot[i] = -1
	}
	var windows [][]int
	for i := 0; i < len(m.nodes); i++ {
		if !live[i] || m.nodes[i].kind != kindMaj {
			continue
		}
		r := wroot[i]
		if slot[r] < 0 {
			slot[r] = len(windows)
			windows = append(windows, nil)
		}
		windows[slot[r]] = append(windows[slot[r]], i)
	}
	return windows
}

// WindowRewritePass runs cut rewriting with candidate evaluation fanned out
// over the context's worker budget (opt.WorkersCtx); the committed result
// is byte-identical for every budget. Cancellation stops the window
// evaluation and returns the unmodified input graph with the context's
// error (the serial commit phase never runs on a partial evaluation,
// preserving byte-identity for any cancellation point).
func (m *MIG) WindowRewritePass(ctx context.Context, k, maxCuts int) (*MIG, error) {
	return m.windowRewrite(ctx, k, maxCuts, false)
}

// windowRewrite is the shared two-phase engine behind window-rewrite
// and rewrite-npn. npn additionally probes the exact NPN-database
// implementation of every (at most 4-input) cut.
func (m *MIG) windowRewrite(ctx context.Context, k, maxCuts int, npn bool) (*MIG, error) {
	cuts := m.CutSet(k, maxCuts)
	refs := m.FanoutCounts()
	lp := takeBools(len(m.nodes))
	live := m.liveInto(*lp)
	defer releaseBools(lp)
	windows := m.windows(live, refs)

	// Phase 1: evaluate windows, every worker probing the shared input
	// graph through a view that owns the worker's memos.
	choices := make([]windowChoice, len(m.nodes))
	jobs := opt.WorkersCtx(ctx)
	if jobs > len(windows) {
		jobs = len(windows)
	}
	if jobs < 1 {
		jobs = 1
	}
	workers := make(chan winWorker, jobs)
	for w := 0; w < jobs; w++ {
		wrefs := refs // freedBy restores it exactly, so one worker may own it
		if w > 0 {
			wrefs = slices.Clone(refs)
		}
		workers <- winWorker{g: &MIG{nodes: m.nodes}, refs: wrefs}
	}
	if err := opt.ForEach(ctx, len(windows), jobs, func(wi int) {
		wk := <-workers
		wk.evalWindow(windows[wi], cuts, choices, npn)
		workers <- wk
	}); err != nil {
		return m, err
	}

	// Phase 2: serial deterministic commit.
	out := New(m.Name)
	out.nodes = slices.Grow(out.nodes, len(m.nodes))
	rp := takeSignals(len(m.nodes), badSignal)
	remap := *rp
	defer releaseSignals(rp)
	remap[0] = Const0
	for idx, in := range m.inputs {
		remap[in] = out.AddInput(m.names[idx])
	}
	var leafBuf []Signal
	for i := range m.nodes {
		nd := &m.nodes[i]
		if !live[i] || nd.kind != kindMaj {
			continue
		}
		ch := choices[i]
		if ch.cutIdx >= 0 {
			leaves := cuts.Leaves(i, int(ch.cutIdx))
			leafBuf = leafBuf[:0]
			ok := true
			for _, l := range leaves {
				s := remap[l]
				if s == badSignal {
					ok = false
					break
				}
				leafBuf = append(leafBuf, s)
			}
			if ok {
				remap[i] = out.synthCut(nil, ch, leafBuf)
				continue
			}
		}
		a := remap[nd.fanin[0].Node()].NotIf(nd.fanin[0].Neg())
		b := remap[nd.fanin[1].Node()].NotIf(nd.fanin[1].Neg())
		c := remap[nd.fanin[2].Node()].NotIf(nd.fanin[2].Neg())
		remap[i] = out.Maj(a, b, c)
	}
	for _, o := range m.Outputs {
		out.AddOutput(o.Name, remap[o.Sig.Node()].NotIf(o.Sig.Neg()))
	}
	return out, nil
}

// winWorker is one evaluation worker. g is a view of the input graph: it
// shares the input's nodes, which no worker writes, and owns the memos its
// probes write — the probe itself (g.dry), the cone memo of freedBy
// (g.scr), the cut-function memo (g.wscr) and the synthesis memo
// (g.memo). refs is the worker's copy of the input graph's fanout
// counts, which freedBy changes transiently (and restores exactly). remap
// is the worker's window-local remap (see evalWindow): epoch-stamped, so it
// is allocated once per pass and starting a window costs a counter
// increment, not a graph-sized clear.
type winWorker struct {
	g     *MIG
	refs  []int
	remap scratch
}

// freedScratch holds the reusable traversal buffers of freedBy so the
// per-probe gain accounting allocates only on growth.
type freedScratch struct {
	stack, incs, decs []int
}

// freedBy estimates how many nodes of the input graph would lose their
// last reference if node i were replaced by the cone rooted at s built
// over the given cut leaves: the maximum fanout-free cone of i with the
// leaves as absolute barriers, computed after protecting every old node
// the new cone reuses. The new cone may hold virtual nodes of the probe p.
// refs holds the input graph's fanout counts and is restored exactly
// before returning, so determinism only needs refs to be worker-private.
// Nodes at or past len(refs) are probe- or window-local and carry no
// reference bookkeeping. Returns 0 when the new cone contains i itself —
// then nothing dies.
func (g *MIG) freedBy(p *probe, i int, s Signal, leaves []int32, refs []int, fs *freedScratch) int {
	if s.Node() == i {
		return 0
	}
	scr := g.scr.begin(p.base + len(p.keys))
	for _, l := range leaves {
		scr.put(int(l), 1) // leaf: barrier for the dereference walk below
	}
	// Protect walk over the new cone: +1 every old node it reuses so the
	// dereference cannot free structure the replacement still needs. A
	// reused node that was dead (refs 0) is being revived, making its own
	// fanin edges real again, so its children need protecting too.
	fs.stack = append(fs.stack[:0], s.Node())
	fs.incs = fs.incs[:0]
	usesI := false
	for len(fs.stack) > 0 {
		n := fs.stack[len(fs.stack)-1]
		fs.stack = fs.stack[:len(fs.stack)-1]
		f, isMaj := g.faninsIn(p, n)
		if scr.seen(n) || !isMaj {
			continue
		}
		scr.put(n, 2)
		if n == i {
			usesI = true
		}
		recurse := true
		if n < len(refs) {
			refs[n]++
			fs.incs = append(fs.incs, n)
			recurse = refs[n] == 1 // revived dead node
		}
		if recurse {
			for _, x := range f {
				fs.stack = append(fs.stack, x.Node())
			}
		}
	}
	freed := 0
	if !usesI {
		// Dereference from i: every fanout of i gets remapped to s during
		// commit, so i itself dies, and then recursively every node whose
		// count drops to zero, stopping at the cut leaves.
		freed = 1
		fs.decs = fs.decs[:0]
		fs.stack = append(fs.stack[:0], i)
		for len(fs.stack) > 0 {
			n := fs.stack[len(fs.stack)-1]
			fs.stack = fs.stack[:len(fs.stack)-1]
			for _, f := range g.nodes[n].fanin {
				fn := f.Node()
				if fn >= len(refs) || g.nodes[fn].kind != kindMaj {
					continue
				}
				if v, ok := scr.get(fn); ok && v == 1 {
					continue // cut leaf: absolute barrier
				}
				refs[fn]--
				fs.decs = append(fs.decs, fn)
				if refs[fn] == 0 {
					freed++
					fs.stack = append(fs.stack, fn)
				}
			}
		}
		for _, n := range fs.decs {
			refs[n]++
		}
	}
	for _, n := range fs.incs {
		refs[n]--
	}
	return freed
}

// evalWindow probes the cut candidates of every node of one window and
// records the winning choices. Every probe is dry: it runs in the worker's
// probe on top of the window's earlier winners, which are kept there as a
// virtual prefix (so later window nodes are costed against the structure
// they will actually have), and is then cut back to that prefix. The
// prefix is dropped with the next window's reset, so every window starts
// from the input graph. cuts is the (read-only) cut cache of the input
// graph; refs is the worker-private fanout-count copy backing the
// freed-node credit of the net-gain scoring.
func (wk *winWorker) evalWindow(window []int, cuts *cut.Cache, choices []windowChoice, npn bool) {
	g, refs := wk.g, wk.refs
	p := &g.dry
	p.reset(len(g.nodes))
	// Window-local remap: nodes of this window already rewritten. Only
	// input-graph nodes are ever looked up.
	wremap := wk.remap.begin(p.base)
	remapped := func(s Signal) Signal {
		if r, ok := wremap.get(s.Node()); ok {
			return r.NotIf(s.Neg())
		}
		return s
	}

	var leafBuf, bestSigs []Signal
	var fs freedScratch
	for _, i := range window {
		a := remapped(g.nodes[i].fanin[0])
		b := remapped(g.nodes[i].fanin[1])
		c := remapped(g.nodes[i].fanin[2])
		prefix := len(p.keys)

		// The default reconstruction is the baseline every candidate must
		// strictly beat on net gain (added minus freed). The default takes
		// no freed credit: with unremapped fanins it strash-hits node i
		// itself (added 0, freed 0), which forces candidates to actually
		// shrink the graph before they displace existing structure.
		def := g.dryMaj(p, a, b, c)
		defAdded, defLevel := len(p.keys)-prefix, g.levelIn(p, def)
		p.truncate(prefix)

		choice := windowChoice{cutIdx: -1}
		bestNet, bestLevel := defAdded, defLevel
		// try scores the candidate ch over the cut leaves and keeps it if
		// it wins.
		try := func(ch windowChoice, leaves []int32) {
			s := g.synthCut(p, ch, leafBuf)
			added, level := len(p.keys)-prefix, g.levelIn(p, s)
			net := added - g.freedBy(p, i, s, leaves, refs, &fs)
			p.truncate(prefix)
			if net < bestNet || (net == bestNet && level < bestLevel) {
				choice = ch
				bestSigs = append(bestSigs[:0], leafBuf...)
				bestNet, bestLevel = net, level
			}
		}
		for ci := 0; ci < cuts.NumCuts(i); ci++ {
			leaves := cuts.Leaves(i, ci)
			if len(leaves) < 2 || len(leaves) > 6 {
				continue
			}
			leafBuf = leafBuf[:0]
			for _, l := range leaves {
				leafBuf = append(leafBuf, remapped(MakeSignal(int(l), false)))
			}
			ch := windowChoice{cutIdx: int32(ci), nvars: int32(len(leafBuf)), w: g.cutFuncW(i, leaves)}
			try(ch, leaves)
			if npn && len(leafBuf) <= 4 {
				ch.npn = true
				try(ch, leaves)
			}
		}
		choices[i] = choice
		// Keep the winner in the probe so later window nodes see it.
		if choice.cutIdx >= 0 {
			wremap.put(i, g.synthCut(p, choice, bestSigs))
		} else {
			wremap.put(i, g.dryMaj(p, a, b, c))
		}
	}
}

// synthCut builds the chosen cut function over the leaf signals: the
// database implementation when ch.npn is set, synthW's otherwise, for real
// when p is nil and inside the dry probe p otherwise.
func (m *MIG) synthCut(p *probe, ch windowChoice, leaves []Signal) Signal {
	if ch.npn {
		return m.synthNPN(p, ch.w, int(ch.nvars), leaves)
	}
	return m.synthW(p, ch.w, int(ch.nvars), leaves)
}
