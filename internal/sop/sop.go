// Package sop implements two-level (sum-of-products) minimization in the
// style of espresso — iterated EXPAND / IRREDUNDANT / REDUCE against a
// truth-table oracle — and algebraic factoring of covers into multi-level
// expression trees. It is the computational core of the AIG rewrite and
// refactor passes, which factor every cut function they try.
//
// The oracle is a pair of word tables, the onset and the care set, in the
// layout of tt.TT: one word for up to six variables, 2^(n-6) words above.
// A cube's table is never built: word w of it is the AND of its low
// literals' variable patterns when w's index bits agree with its literals
// on variables 6 and up, and zero otherwise. EXPAND tests a cube against
// the care set word by word; IRREDUNDANT and REDUCE read the onset part
// that only one cube covers one word at a time; single-cube containment
// compares literal masks. The tables, covers and factored trees live in a
// Factorer's scratch, which is reused across calls, so a warm FactorTT
// allocates only the expression it returns.
//
// Covers are limited to functions of at most tt.MaxVars variables, which
// is what the cut-based passes need.
package sop

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/tt"
)

// Cover is a sum of product terms over a fixed number of variables.
type Cover struct {
	NumVars int
	Cubes   []tt.Cube
}

// FromTT returns an initial irredundant cover of f (Minato–Morreale ISOP).
func FromTT(f tt.TT) Cover {
	return Cover{NumVars: f.NumVars(), Cubes: tt.SOP(f)}
}

// TT returns the function of the cover.
func (c Cover) TT() tt.TT {
	return tt.CoverTT(c.Cubes, c.NumVars)
}

// NumLits returns the total literal count.
func (c Cover) NumLits() int {
	return tt.CoverLits(c.Cubes)
}

// A Factorer minimizes and factors functions in word scratch that it keeps
// across calls. The zero value is ready to use; a Factorer must not be
// used by two goroutines at once.
type Factorer struct {
	n     int       // variables of the loaded function
	full  uint64    // valid bits of a table word: all 64 unless n < 6
	on    []uint64  // onset
	care  []uint64  // onset ∪ don't-cares
	cubes []tt.Cube // the espresso loop's cover
	best  []tt.Cube // the cheapest cover the loop has seen
	spare []tt.Cube // Expand's survivors and factorRec's remainders
	isop  []uint64  // tt.AppendISOP's scratch
	nodes []node    // factored trees before they become Exprs
}

// load sizes the tables for functions of n variables; the caller fills
// them.
func (s *Factorer) load(n int) {
	w := 1
	if n > 6 {
		w = 1 << (n - 6)
	}
	s.n, s.full = n, ^uint64(0)
	if n < 6 {
		s.full = 1<<(1<<n) - 1
	}
	s.on = slices.Grow(s.on[:0], w)[:w]
	s.care = slices.Grow(s.care[:0], w)[:w]
}

// loadSpec loads the onset on and the care set on ∪ dc.
func (s *Factorer) loadSpec(on, dc tt.TT) {
	if on.NumVars() != dc.NumVars() {
		panic("sop: arity mismatch")
	}
	s.load(on.NumVars())
	for i := range s.on {
		s.on[i] = on.Word(i)
		s.care[i] = s.on[i] | dc.Word(i)
	}
}

// cubeWord returns word w of cube c's table.
func (s *Factorer) cubeWord(c tt.Cube, w int) uint64 {
	if uint32(w)&(c.Mask>>6) != c.Polarity>>6 {
		return 0
	}
	x := s.full
	for m := c.Mask & 63; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		if c.Polarity>>v&1 != 0 {
			x &= tt.VarWord(v)
		} else {
			x &^= tt.VarWord(v)
		}
	}
	return x
}

// onlyWord returns word w of the onset part that cube i covers and no
// other cube does.
func (s *Factorer) onlyWord(i, w int) uint64 {
	x := s.on[w] & s.cubeWord(s.cubes[i], w)
	for k, c := range s.cubes {
		if x == 0 {
			break
		}
		if k != i {
			x &^= s.cubeWord(c, w)
		}
	}
	return x
}

// expand enlarges each cube (removing literals greedily, lowest variable
// first) while it stays inside the care set, then drops cubes contained
// in other cubes.
func (s *Factorer) expand() {
	for i, c := range s.cubes {
		for m := c.Mask; m != 0; m &= m - 1 {
			bit := m & -m
			trial := tt.Cube{Mask: c.Mask &^ bit, Polarity: c.Polarity &^ bit}
			inside := true
			for w, care := range s.care {
				if s.cubeWord(trial, w)&^care != 0 {
					inside = false
					break
				}
			}
			if inside {
				c = trial
			}
		}
		s.cubes[i] = c
	}
	// Cube i is contained in cube j when j's literals are a subset of i's.
	// Of two equal cubes the earlier one stays.
	s.spare = s.spare[:0]
	for i, ci := range s.cubes {
		contained := false
		for j, cj := range s.cubes {
			if j != i && cj.Mask&^ci.Mask == 0 && (ci.Polarity^cj.Polarity)&cj.Mask == 0 && (cj != ci || j < i) {
				contained = true
				break
			}
		}
		if !contained {
			s.spare = append(s.spare, ci)
		}
	}
	s.cubes = append(s.cubes[:0], s.spare...)
}

// irredundant removes, in order, each cube whose onset part is covered by
// the rest of the cover.
func (s *Factorer) irredundant() {
	for i := 0; i < len(s.cubes); {
		redundant := true
		for w := range s.on {
			if s.onlyWord(i, w) != 0 {
				redundant = false
				break
			}
		}
		if redundant {
			s.cubes = slices.Delete(s.cubes, i, i+1)
			continue
		}
		i++
	}
}

// reduce shrinks each cube, in order, to the supercube of the onset part
// only it covers, creating room for the next expansion to move in a
// different direction.
func (s *Factorer) reduce() {
	for i := range s.cubes {
		// The part's minterms: the OR of its words, and the AND and OR of
		// the indices of its nonzero words (variables 6 and up).
		var part uint64
		idxAnd, idxOr := ^0, 0
		for w := range s.on {
			if x := s.onlyWord(i, w); x != 0 {
				part |= x
				idxAnd &= w
				idxOr |= w
			}
		}
		if part == 0 {
			continue
		}
		var c tt.Cube
		for v := 0; v < s.n; v++ {
			var all1, all0 bool
			if v < 6 {
				all1, all0 = part&^tt.VarWord(v) == 0, part&tt.VarWord(v) == 0
			} else {
				all1, all0 = idxAnd>>(v-6)&1 != 0, idxOr>>(v-6)&1 == 0
			}
			if all1 {
				c = c.WithLit(v, true)
			} else if all0 {
				c = c.WithLit(v, false)
			}
		}
		s.cubes[i] = c
	}
}

// minimize runs the espresso loop (EXPAND, IRREDUNDANT, REDUCE) from the
// ISOP of the loaded tables until the cover stops improving, and returns
// the cheapest cover found, in s.best.
func (s *Factorer) minimize() []tt.Cube {
	s.cubes = tt.AppendISOP(s.cubes[:0], s.on, s.care, s.n, &s.isop)
	s.best = append(s.best[:0], s.cubes...)
	cost := func(cubes []tt.Cube) int { return len(cubes)*1000 + tt.CoverLits(cubes) }
	bestCost := cost(s.best)
	for iter := 0; iter < 8; iter++ {
		s.expand()
		s.irredundant()
		if c := cost(s.cubes); c < bestCost {
			s.best = append(s.best[:0], s.cubes...)
			bestCost = c
		} else if iter > 0 {
			break
		}
		s.reduce()
	}
	return s.best
}

// Expand enlarges each cube (removing literals greedily) while staying
// inside on ∪ dc, then drops cubes contained in other cubes.
func (c *Cover) Expand(on, dc tt.TT) {
	var s Factorer
	s.loadSpec(on, dc)
	s.cubes = c.Cubes
	s.expand()
	c.Cubes = s.cubes
}

// Irredundant removes cubes whose onset contribution is covered by the rest
// of the cover (plus don't-cares).
func (c *Cover) Irredundant(on, dc tt.TT) {
	var s Factorer
	s.loadSpec(on, dc)
	s.cubes = c.Cubes
	s.irredundant()
	c.Cubes = s.cubes
}

// Reduce shrinks each cube to the supercube of the onset part only it
// covers, creating room for the next expansion to move in a different
// direction.
func (c *Cover) Reduce(on, dc tt.TT) {
	var s Factorer
	s.loadSpec(on, dc)
	s.cubes = c.Cubes
	s.reduce()
}

// Minimize runs the espresso loop (EXPAND, IRREDUNDANT, REDUCE) until the
// cover stops improving, starting from the ISOP of [on, on ∪ dc]. It
// returns the best cover found. The result covers all of on and nothing
// outside on ∪ dc.
func Minimize(on, dc tt.TT) Cover {
	var s Factorer
	s.loadSpec(on, dc)
	return Cover{NumVars: s.n, Cubes: append([]tt.Cube(nil), s.minimize()...)}
}

// MinimizeTT minimizes a completely specified function.
func MinimizeTT(f tt.TT) Cover {
	return Minimize(f, tt.Const(f.NumVars(), false))
}

// Verify checks that the cover covers on and stays within on ∪ dc.
func (c Cover) Verify(on, dc tt.TT) error {
	f := c.TT()
	if !on.AndNot(f).IsConst0() {
		return fmt.Errorf("sop: cover misses onset minterms")
	}
	if !f.AndNot(on.Or(dc)).IsConst0() {
		return fmt.Errorf("sop: cover intersects offset")
	}
	return nil
}
