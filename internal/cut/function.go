package cut

import "repro/internal/tt"

// FuncScratch is reusable, epoch-stamped dense memoization state for cone
// truth-table extraction. One scratch belongs to one graph and must not be
// shared across goroutines.
type FuncScratch struct {
	memo  []tt.TT
	stamp []uint32
	epoch uint32
	// vars caches the projection tables tt.Var(n, i), which are immutable
	// and otherwise reallocated for every cut evaluated.
	vars [tt.MaxVars + 1][]tt.TT
}

func (s *FuncScratch) begin(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.memo = append(s.memo, make([]tt.TT, n-len(s.memo))...)
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

func (s *FuncScratch) get(i int) (tt.TT, bool) {
	if s.stamp[i] == s.epoch {
		return s.memo[i], true
	}
	return tt.TT{}, false
}

func (s *FuncScratch) put(i int, f tt.TT) {
	s.stamp[i] = s.epoch
	s.memo[i] = f
}

// projection returns tt.Var(nvars, i) from the scratch cache.
func (s *FuncScratch) projection(nvars, i int) tt.TT {
	if s.vars[nvars] == nil {
		vs := make([]tt.TT, nvars)
		for j := range vs {
			vs[j] = tt.Var(nvars, j)
		}
		s.vars[nvars] = vs
	}
	return s.vars[nvars][i]
}

// FunctionDense computes the truth table of node root over the given cut
// leaves (leaf i is variable i), memoizing the cone walk in s. combine
// evaluates one node inside the cone from its fanins' tables via rec.
func FunctionDense(root int, leaves []int32, nvars int, s *FuncScratch, combine func(idx int, rec func(fanin int) tt.TT) tt.TT) tt.TT {
	s.begin(root + 1)
	for i, l := range leaves {
		s.put(int(l), s.projection(nvars, i))
	}
	var rec func(idx int) tt.TT
	rec = func(idx int) tt.TT {
		if f, ok := s.get(idx); ok {
			return f
		}
		f := combine(idx, rec)
		s.put(idx, f)
		return f
	}
	return rec(root)
}
