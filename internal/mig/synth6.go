package mig

// Word-level resynthesis for functions of up to six variables: the
// implementation of SynthesizeTT, whose steps synth.go lists. Every
// cut-rewriting call synthesizes functions over at most four leaves, where
// a truth table is a single uint64; routing those through the generic tt.TT
// value type would allocate a words slice per intermediate operation.
// Every cofactor, projection and comparison here is pure uint64
// arithmetic instead, so a synthesis probe performs no heap allocation
// beyond the nodes it creates.

import "math/bits"

// varMask6[i] is the repeating 64-bit pattern of variable i (tt.varMasks).
var varMask6 = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// wordMask returns the valid-bit mask of a table over n <= 6 variables.
func wordMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// varWord is tt.Var(n, i) as a word.
func varWord(n, i int) uint64 { return varMask6[i] & wordMask(n) }

// cof0w / cof1w are the word cofactors with respect to variable i.
func cof0w(w uint64, i int) uint64 {
	lo := w &^ varMask6[i]
	return lo | lo<<(1<<uint(i))
}

func cof1w(w uint64, i int) uint64 {
	hi := w & varMask6[i]
	return hi | hi>>(1<<uint(i))
}

// maj3w is the bitwise three-input majority.
func maj3w(a, b, c uint64) uint64 { return a&b | a&c | b&c }

// flipw complements variable i in w (swaps the two cofactor halves).
func flipw(w uint64, i int) uint64 {
	s := uint(1) << uint(i)
	return (w&varMask6[i])>>s | (w&^varMask6[i])<<s
}

// synthW builds the word-encoded function w over n <= 6 leaf signals: in
// the MIG when p is nil, otherwise inside the dry probe p.
func (m *MIG) synthW(p *probe, w uint64, n int, leaves []Signal) Signal {
	if n > 6 || n != len(leaves) {
		panic("mig: synthW needs at most six leaves, one per variable")
	}
	m.memo.reset()
	return m.synthRec6(p, w, n, leaves)
}

// synthMemo is the memo of one synthW call, keyed by truth-table word: an
// open-addressing table whose zero key (a constant, never stored) marks a
// free slot, and the slots the call filled, which the next call clears.
// Each recursion level fixes a variable, so a call stores at most 63 words
// and the table stays at most half full.
type synthMemo struct {
	key  [128]uint64
	sig  [128]Signal
	used []uint8
}

func (t *synthMemo) reset() {
	for _, i := range t.used {
		t.key[i] = 0
	}
	t.used = t.used[:0]
}

// slot is the slot holding w, or the free slot ending its probe run.
func (t *synthMemo) slot(w uint64) int {
	i := int(w * 0x9E3779B97F4A7C15 >> 57)
	for t.key[i] != 0 && t.key[i] != w {
		i = (i + 1) & 127
	}
	return i
}

func (t *synthMemo) get(w uint64) (Signal, bool) {
	i := t.slot(w)
	return t.sig[i], t.key[i] != 0
}

func (t *synthMemo) put(w uint64, s Signal) {
	i := t.slot(w)
	if t.key[i] == 0 {
		t.key[i] = w
		t.used = append(t.used, uint8(i))
	}
	t.sig[i] = s
}

func (m *MIG) synthRec6(p *probe, w uint64, n int, leaves []Signal) Signal {
	mask := wordMask(n)
	w &= mask
	if w == 0 {
		return Const0
	}
	if w == mask {
		return Const1
	}
	memo := &m.memo
	if s, ok := memo.get(w); ok {
		return s
	}
	if s, ok := memo.get(^w & mask); ok {
		return s.Not()
	}

	// Support.
	var sup [6]int
	ns := 0
	for i := 0; i < n; i++ {
		if cof0w(w, i)&mask != cof1w(w, i)&mask {
			sup[ns] = i
			ns++
		}
	}
	support := sup[:ns]

	// Literal?
	if ns == 1 {
		v := support[0]
		s := leaves[v]
		if w == varWord(n, v) {
			memo.put(w, s)
			return s
		}
		memo.put(w, s.Not())
		return s.Not()
	}

	// Two-literal AND/OR/XOR shapes.
	if ns == 2 {
		a, b := support[0], support[1]
		wa, wb := varWord(n, a), varWord(n, b)
		for _, pa := range []bool{false, true} {
			for _, pb := range []bool{false, true} {
				la, lb := wa, wb
				if pa {
					la = ^la & mask
				}
				if pb {
					lb = ^lb & mask
				}
				switch w {
				case la & lb:
					s := m.and(p, leaves[a].NotIf(pa), leaves[b].NotIf(pb))
					memo.put(w, s)
					return s
				case la | lb:
					s := m.or(p, leaves[a].NotIf(pa), leaves[b].NotIf(pb))
					memo.put(w, s)
					return s
				}
			}
		}
		if w == wa^wb {
			s := m.xor(p, leaves[a], leaves[b])
			memo.put(w, s)
			return s
		}
		if w == ^(wa^wb)&mask {
			s := m.xor(p, leaves[a], leaves[b]).Not()
			memo.put(w, s)
			return s
		}
	}

	// Three-literal majority shapes (any polarities, incl. output).
	if ns == 3 {
		a, b, c := support[0], support[1], support[2]
		base := maj3w(varWord(n, a), varWord(n, b), varWord(n, c))
		// Variants flip a (bit 0), b (bit 1), c (bit 2) and complement
		// the output (bit 3).
		for variant := 0; variant < 16; variant++ {
			g := base
			if variant&1 != 0 {
				g = flipw(g, a)
			}
			if variant&2 != 0 {
				g = flipw(g, b)
			}
			if variant&4 != 0 {
				g = flipw(g, c)
			}
			if variant&8 != 0 {
				g = ^g & mask
			}
			if w == g {
				s := m.maj(p,
					leaves[a].NotIf(variant&1 != 0),
					leaves[b].NotIf(variant&2 != 0),
					leaves[c].NotIf(variant&4 != 0),
				).NotIf(variant&8 != 0)
				memo.put(w, s)
				return s
			}
		}
		// Three-input parity.
		par := varWord(n, a) ^ varWord(n, b) ^ varWord(n, c)
		if w == par || w == ^par&mask {
			s := m.xor(p, m.xor(p, leaves[a], leaves[b]), leaves[c]).NotIf(w == ^par&mask)
			memo.put(w, s)
			return s
		}
	}

	// Top majority decomposition with a literal arm: when f0 ⊆ f1,
	// M(x, f1, f0) = x·f1 + f0 = ite(x, f1, f0) = f (and symmetrically
	// f = M(x', f0, f1) when f1 ⊆ f0).
	{
		best := -1
		for _, v := range support {
			f0, f1 := cof0w(w, v)&mask, cof1w(w, v)&mask
			if f0&^f1 == 0 || f1&^f0 == 0 {
				best = v
				break
			}
		}
		if best >= 0 {
			v := best
			f0, f1 := cof0w(w, v)&mask, cof1w(w, v)&mask
			var s Signal
			if f0&^f1 == 0 {
				// f0 ⊆ f1: f = M(x, f1, f0).
				g := m.synthRec6(p, f1, n, leaves)
				h := m.synthRec6(p, f0, n, leaves)
				s = m.maj(p, leaves[v], g, h)
			} else {
				// f1 ⊆ f0: f = M(x', f0, f1).
				g := m.synthRec6(p, f0, n, leaves)
				h := m.synthRec6(p, f1, n, leaves)
				s = m.maj(p, leaves[v].Not(), g, h)
			}
			memo.put(w, s)
			return s
		}
	}

	// General Shannon step on the most binate variable.
	bestV, bestScore := support[0], -1
	for _, v := range support {
		d := bits.OnesCount64((cof0w(w, v) ^ cof1w(w, v)) & mask)
		if d > bestScore {
			bestV, bestScore = v, d
		}
	}
	f0 := cof0w(w, bestV) & mask
	f1 := cof1w(w, bestV) & mask
	g1 := m.synthRec6(p, f1, n, leaves)
	g0 := m.synthRec6(p, f0, n, leaves)
	x := leaves[bestV]
	// f = (x' + f1)(x + f0) = M(M(x', f1, 1), M(x, f0, 1), 0).
	s := m.and(p, m.or(p, x.Not(), g1), m.or(p, x, g0))
	memo.put(w, s)
	return s
}

// wordScratch is the epoch-stamped memo of word-level cone walks.
type wordScratch struct {
	stamp []uint32
	w     []uint64
	epoch uint32
}

func (s *wordScratch) begin(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.w = append(s.w, make([]uint64, n-len(s.w))...)
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

// cutFuncW computes the truth table of root over at most six cut leaves as
// a single word, with zero heap allocation.
func (m *MIG) cutFuncW(root int, leaves []int32) uint64 {
	n := len(leaves)
	if n > 6 {
		panic("mig: cutFuncW needs at most six leaves")
	}
	mask := wordMask(n)
	s := &m.wscr
	s.begin(root + 1)
	for i, l := range leaves {
		s.stamp[l] = s.epoch
		s.w[l] = varWord(n, i)
	}
	var rec func(idx int) uint64
	rec = func(idx int) uint64 {
		if s.stamp[idx] == s.epoch {
			return s.w[idx]
		}
		nd := &m.nodes[idx]
		var v uint64
		if nd.kind != kindMaj {
			// The constant node outside the cut.
			v = 0
		} else {
			get := func(sg Signal) uint64 {
				x := rec(sg.Node())
				if sg.Neg() {
					return ^x & mask
				}
				return x
			}
			v = maj3w(get(nd.fanin[0]), get(nd.fanin[1]), get(nd.fanin[2]))
		}
		s.stamp[idx] = s.epoch
		s.w[idx] = v
		return v
	}
	return rec(root) & mask
}
