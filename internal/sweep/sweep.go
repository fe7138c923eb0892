// Package sweep holds the representation-independent core of
// simulation-guided SAT sweeping, shared by the fraig passes of
// internal/mig and internal/aig: stimulus construction (random words with
// counterexample patterns packed into the leading bits) and the
// partitioning of nodes into candidate equivalence classes by canonical
// simulation signature. The representation-specific parts — cone CNF
// encoding, SAT queries, and the dense-remap merge rebuild — stay in the
// graph packages.
package sweep

// Pair is one candidate equivalence: Member == Repr XOR Phase on every
// simulated pattern. Member is always a mergeable (gate) node; Repr may be
// any eligible node — the classifier prefers non-mergeable representatives
// (constants, primary inputs), falling back to the lowest-index gate.
type Pair struct {
	Repr, Member int
	Phase        bool
}

// Scratch is reusable epoch-stamped per-node scratch for cone traversals:
// clearing is an epoch bump, not a reallocation, so per-query cost is
// proportional to the cone, not the graph (the same trick as the graph
// packages' rebuild scratch). Pool instances per worker; not safe for
// concurrent use.
type Scratch[T any] struct {
	epoch int32
	stamp []int32
	val   []T
}

// Reset prepares the scratch for a graph of n nodes, invalidating all
// previous entries in O(1) (amortized). Growth is geometric, so a slowly
// growing n (a solver's variable count) reallocates O(log n) times.
func (s *Scratch[T]) Reset(n int) {
	if len(s.stamp) < n {
		n = max(n, 2*len(s.stamp))
		s.stamp = make([]int32, n)
		s.val = make([]T, n)
		s.epoch = 1
		return
	}
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: hard-clear once
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

// Seen reports whether node i was Set since the last Reset.
func (s *Scratch[T]) Seen(i int) bool { return s.stamp[i] == s.epoch }

// Set stores v for node i.
func (s *Scratch[T]) Set(i int, v T) {
	s.stamp[i] = s.epoch
	s.val[i] = v
}

// Get returns the value stored for node i (zero value if not Set).
func (s *Scratch[T]) Get(i int) T {
	if s.stamp[i] != s.epoch {
		var zero T
		return zero
	}
	return s.val[i]
}

// MaxWords is the largest words argument a fraig pass accepts. Memory
// grows with it on every graph, however small: Rows allocates one row per
// word, each round simulates every row over every node, and the signature
// key of a node is 8 bytes per word. Every shipped flow uses at most 4.
const MaxWords = 64

// Rows builds stimulus rows for a graph with nin inputs: words rows of
// rng-driven random values, preceded by enough rows to carry one bit per
// accumulated counterexample pattern (remaining bits of those rows are
// random too). rng is any deterministic word source (e.g. rand.Uint64).
func Rows(nin, words int, rng func() uint64, cexes [][]bool) [][]uint64 {
	cw := (len(cexes) + 63) / 64
	rows := make([][]uint64, cw+words)
	for w := range rows {
		row := make([]uint64, nin)
		for i := range row {
			row[i] = rng()
		}
		rows[w] = row
	}
	for j, cex := range cexes {
		w, bit := j/64, uint(j%64)
		for i := 0; i < nin; i++ {
			if cex[i] {
				rows[w][i] |= 1 << bit
			} else {
				rows[w][i] &^= 1 << bit
			}
		}
	}
	return rows
}

// Verdict is one solved candidate pair.
type Verdict struct {
	Proven bool
	Cex    []bool // refutation input assignment, nil otherwise
}

// RoundSpec parameterizes one fraig round over a graph representation.
// Everything representation-specific stays behind the callbacks: Eval is
// the graph's word-level simulator, Solve decides one candidate pair (a
// cone-encoded SAT query), ForEach is the parallel driver (the callers
// pass opt.ForEach bound to their worker budget).
type RoundSpec struct {
	NumInputs int
	NumNodes  int
	Words     int
	Rng       func() uint64
	Eval      func(row []uint64) []uint64
	Include   func(node int) bool
	Mergeable func(node int) bool
	Solve     func(Pair) Verdict
	ForEach   func(n int, fn func(i int))
}

// Round runs one simulate–classify–prove iteration and folds the
// verdicts: subRepr[i] >= 0 means node i proved equal to that
// representative (XOR subPhase[i]) and should merge; newCex carries the
// refutation patterns for the next round's stimulus. The caller applies
// the merges through its representation's rebuild. Deterministic for any
// ForEach scheduling: the pair list and verdict folding are order-fixed.
func Round(spec RoundSpec, cexes [][]bool) (subRepr []int32, subPhase []bool, merged int, newCex [][]bool) {
	rows := Rows(spec.NumInputs, spec.Words, spec.Rng, cexes)
	sig := make([][]uint64, len(rows))
	for w, row := range rows {
		sig[w] = spec.Eval(row)
	}
	pairs := Pairs(sig, spec.NumNodes, spec.Include, spec.Mergeable)
	if len(pairs) == 0 {
		return nil, nil, 0, nil
	}
	verdicts := make([]Verdict, len(pairs))
	spec.ForEach(len(pairs), func(k int) { verdicts[k] = spec.Solve(pairs[k]) })
	subRepr = make([]int32, spec.NumNodes)
	for i := range subRepr {
		subRepr[i] = -1
	}
	subPhase = make([]bool, spec.NumNodes)
	for k, v := range verdicts {
		if v.Proven {
			subRepr[pairs[k].Member] = int32(pairs[k].Repr)
			subPhase[pairs[k].Member] = pairs[k].Phase
			merged++
		} else if v.Cex != nil {
			newCex = append(newCex, v.Cex)
		}
	}
	return subRepr, subPhase, merged, newCex
}

// Canon returns the canonical signature key of one node over the first
// words rows of sig (word-major: sig[w][node]), plus the phase flag: the
// signature is complemented when its first simulated bit is 1, so a node
// and its complement share a key and differ only in phase. buf is an
// optional reusable scratch buffer.
func Canon(sig [][]uint64, words, node int, buf []byte) (key string, neg bool) {
	neg = sig[0][node]&1 == 1
	buf = buf[:0]
	for w := 0; w < words; w++ {
		v := sig[w][node]
		if neg {
			v = ^v
		}
		buf = append(buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(buf), neg
}

// Pairs partitions the nodes 0..n-1 into classes of equal canonical
// signature (complement folded into the phase) and emits one candidate
// pair per mergeable class member against the class representative.
// sig is word-major simulation output: sig[w][node]. include reports
// whether a node participates at all; mergeable whether it may be replaced
// (a gate node). The pair order is deterministic: classes in first-seen
// order, members by ascending node index.
func Pairs(sig [][]uint64, n int, include, mergeable func(node int) bool) []Pair {
	keyBuf := make([]byte, 0, 8*len(sig))
	canon := func(node int) (string, bool) {
		return Canon(sig, len(sig), node, keyBuf)
	}
	classes := make(map[string][]int)
	var order []string
	phase := make([]bool, n)
	for i := 0; i < n; i++ {
		if !include(i) {
			continue
		}
		k, neg := canon(i)
		phase[i] = neg
		if _, seen := classes[k]; !seen {
			order = append(order, k)
		}
		classes[k] = append(classes[k], i)
	}
	var pairs []Pair
	for _, k := range order {
		members := classes[k]
		if len(members) < 2 {
			continue
		}
		repr := members[0]
		for _, v := range members {
			if !mergeable(v) {
				repr = v
				break
			}
		}
		for _, v := range members {
			if v == repr || !mergeable(v) {
				continue
			}
			pairs = append(pairs, Pair{Repr: repr, Member: v, Phase: phase[repr] != phase[v]})
		}
	}
	return pairs
}
