package cut

// Arena-backed, incrementally maintained cut sets.
//
// Cache stores every cut of a graph in three flat arrays, so enumeration
// allocates nothing per cut and every read is a subslice view:
//
//	leaves   all leaf indices of all cuts, back to back
//	spans    one {offset, length} pair per cut
//	nodeOff  node i owns cuts spans[nodeOff[i] : nodeOff[i+1]]
//
// A graph with a cut cache only ever appends nodes, so the cache is
// maintained by Extend(n), which enumerates only the nodes added since the
// last call, instead of whole-graph re-enumeration. A graph that keeps its
// Cache across optimization steps therefore pays for cut enumeration only
// on the dirty region — the appended suffix.

// span locates one cut's leaves inside the arena.
type span struct {
	off int32
	n   int32
}

// Classifier reports a node's role and, for Gate nodes, its fanin node
// indices (at most three; nf is the count). It must be cheap: it is called
// once per enumerated node.
type Classifier func(i int) (role Role, fanins [3]int32, nf int)

// Cache holds the k-feasible cuts of a growing graph.
type Cache struct {
	k       int
	maxCuts int

	leaves  []int32
	spans   []span
	nodeOff []int32 // len = NumNodes()+1

	// Per-node enumeration scratch, reused across Extend calls.
	scrLeaves []int32
	scrSpans  []span
	mergeBuf  []int32
}

// NewCache returns an empty cache for k-feasible cuts with at most maxCuts
// non-trivial cuts kept per node.
func NewCache(k, maxCuts int) *Cache {
	return &Cache{k: k, maxCuts: maxCuts, nodeOff: []int32{0}}
}

// K returns the cut size bound.
func (c *Cache) K() int { return c.k }

// MaxCuts returns the per-node cut count bound.
func (c *Cache) MaxCuts() int { return c.maxCuts }

// NumNodes returns the number of nodes whose cuts are cached.
func (c *Cache) NumNodes() int { return len(c.nodeOff) - 1 }

// NumCuts returns the number of cuts of node i.
func (c *Cache) NumCuts(i int) int { return int(c.nodeOff[i+1] - c.nodeOff[i]) }

// Leaves returns the leaves of the j-th cut of node i as a view into the
// arena. The caller must not modify or retain it across Extend.
func (c *Cache) Leaves(i, j int) []int32 {
	s := c.spans[c.nodeOff[i]+int32(j)]
	return c.leaves[s.off : s.off+s.n]
}

// Reset empties the cache, keeping capacity.
func (c *Cache) Reset() {
	c.leaves = c.leaves[:0]
	c.spans = c.spans[:0]
	c.nodeOff = c.nodeOff[:1]
}

// Extend enumerates cuts for nodes [NumNodes(), numNodes), the dirty suffix
// appended since the previous Extend (or since NewCache), in topological
// (index) order. A Gate's cuts are merged bottom-up from its fanins' cuts
// with dominance filtering; when more than maxCuts survive, the smallest are
// kept, and the trivial cut {node} is appended last.
func (c *Cache) Extend(numNodes int, classify Classifier) {
	for i := c.NumNodes(); i < numNodes; i++ {
		role, fanins, nf := classify(i)
		switch role {
		case Leaf:
			c.leaves = append(c.leaves, int32(i))
			c.spans = append(c.spans, span{off: int32(len(c.leaves) - 1), n: 1})
		case Free:
			c.spans = append(c.spans, span{off: int32(len(c.leaves)), n: 0})
		case Gate:
			c.enumGate(i, fanins, nf)
		}
		c.nodeOff = append(c.nodeOff, int32(len(c.spans)))
	}
}

// enumGate merges the fanin cut sets of gate node i with dominance
// filtering, keeps the maxCuts smallest, and appends the trivial cut {i}.
// The cross product over at most three fanins is unrolled into explicit
// loops so the enumeration allocates nothing per node.
func (c *Cache) enumGate(i int, fanins [3]int32, nf int) {
	c.scrLeaves = c.scrLeaves[:0]
	c.scrSpans = c.scrSpans[:0]
	var pick [3]span
	f0 := fanins[0]
	for j0 := c.nodeOff[f0]; j0 < c.nodeOff[f0+1]; j0++ {
		pick[0] = c.spans[j0]
		if nf == 1 {
			c.tryCandidate(pick[:1])
			continue
		}
		f1 := fanins[1]
		for j1 := c.nodeOff[f1]; j1 < c.nodeOff[f1+1]; j1++ {
			pick[1] = c.spans[j1]
			if nf == 2 {
				c.tryCandidate(pick[:2])
				continue
			}
			f2 := fanins[2]
			for j2 := c.nodeOff[f2]; j2 < c.nodeOff[f2+1]; j2++ {
				pick[2] = c.spans[j2]
				c.tryCandidate(pick[:3])
			}
		}
	}

	// Keep the maxCuts smallest surviving candidates, preserving insertion
	// order among equals for determinism. Stable insertion sort: the lists
	// are tiny and sort.SliceStable allocates its reflection swapper.
	order := c.scrSpans
	for x := 1; x < len(order); x++ {
		for y := x; y > 0 && order[y].n < order[y-1].n; y-- {
			order[y], order[y-1] = order[y-1], order[y]
		}
	}
	if len(order) > c.maxCuts {
		order = order[:c.maxCuts]
	}
	// Commit scratch to the arena.
	for _, s := range order {
		off := int32(len(c.leaves))
		c.leaves = append(c.leaves, c.scrLeaves[s.off:s.off+s.n]...)
		c.spans = append(c.spans, span{off: off, n: s.n})
	}
	c.leaves = append(c.leaves, int32(i))
	c.spans = append(c.spans, span{off: int32(len(c.leaves) - 1), n: 1})
}

// tryCandidate merges the picked fanin cuts and inserts the result into the
// scratch set unless it exceeds k leaves or is dominated.
func (c *Cache) tryCandidate(picked []span) {
	buf := c.mergeBuf[:0]
	for _, s := range picked {
		for _, l := range c.leaves[s.off : s.off+s.n] {
			pos := 0
			for pos < len(buf) && buf[pos] < l {
				pos++
			}
			if pos < len(buf) && buf[pos] == l {
				continue
			}
			if len(buf) == c.k {
				c.mergeBuf = buf
				return
			}
			buf = append(buf, 0)
			copy(buf[pos+1:], buf[pos:])
			buf[pos] = l
		}
	}
	c.mergeBuf = buf

	// Dominance: drop the candidate if an existing cut is a subset of it;
	// drop existing cuts the candidate is a subset of.
	for _, s := range c.scrSpans {
		if subset(c.scrLeaves[s.off:s.off+s.n], buf) {
			return
		}
	}
	kept := c.scrSpans[:0]
	for _, s := range c.scrSpans {
		if !subset(buf, c.scrLeaves[s.off:s.off+s.n]) {
			kept = append(kept, s)
		}
	}
	c.scrSpans = kept
	off := int32(len(c.scrLeaves))
	c.scrLeaves = append(c.scrLeaves, buf...)
	c.scrSpans = append(c.scrSpans, span{off: off, n: int32(len(buf))})
}

// subset reports whether sorted slice a is a subset of sorted slice b.
func subset(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, l := range b {
		if i < len(a) && a[i] == l {
			i++
		}
	}
	return i == len(a)
}
