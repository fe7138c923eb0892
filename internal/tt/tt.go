// Package tt implements bit-parallel truth tables for Boolean functions of up
// to 16 variables. Truth tables are the workhorse of functional reasoning in
// the rest of the repository: cut functions during rewriting, exact
// equivalence checking of small cones, ISOP extraction for the SOP engine,
// and NPN canonicalization for rewriting databases.
//
// A table over n variables stores 2^n bits packed into uint64 words, minterm
// i at bit i%64 of word i/64. Variable 0 is the fastest-toggling input
// (pattern 0xAAAA... in the first word).
package tt

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest supported number of variables.
const MaxVars = 16

// varMasks[i] is the repeating 64-bit pattern of variable i for i < 6.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// VarWord returns the 64-bit pattern of variable i < 6, the value of every
// word of Var(n, i) for n ≥ 6.
func VarWord(i int) uint64 { return varMasks[i] }

// TT is a truth table over a fixed number of variables.
type TT struct {
	nVars int
	words []uint64
}

// wordCount returns the number of uint64 words needed for n variables.
func wordCount(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// usedMask returns the mask of valid bits in the (single) word of a table
// with n <= 6 variables.
func usedMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// New returns the constant-0 table over n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("tt: variable count %d out of range [0,%d]", n, MaxVars))
	}
	return TT{nVars: n, words: make([]uint64, wordCount(n))}
}

// Const returns the constant table with the given value over n variables.
func Const(n int, v bool) TT {
	t := New(n)
	if v {
		for i := range t.words {
			t.words[i] = ^uint64(0)
		}
		t.mask()
	}
	return t
}

// Var returns the projection function of variable i over n variables.
func Var(n, i int) TT {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tt: variable %d out of range for %d-input table", i, n))
	}
	t := New(n)
	if i < 6 {
		for w := range t.words {
			t.words[w] = varMasks[i]
		}
		t.mask()
		return t
	}
	// Variable i toggles every 2^(i-6) words.
	period := 1 << (i - 6)
	for w := range t.words {
		if w&period != 0 {
			t.words[w] = ^uint64(0)
		}
	}
	return t
}

// FromWords builds a table over n variables from raw words (copied).
func FromWords(n int, words []uint64) TT {
	t := New(n)
	copy(t.words, words)
	t.mask()
	return t
}

// FromHex parses a hexadecimal truth-table string (most significant nibble
// first, as printed by Hex) over n variables.
func FromHex(n int, s string) (TT, error) {
	t := New(n)
	nibbles := 1 << n / 4
	if nibbles == 0 {
		nibbles = 1
	}
	if len(s) != nibbles {
		return TT{}, fmt.Errorf("tt: hex string %q has %d nibbles, want %d for %d vars", s, len(s), nibbles, n)
	}
	for i := 0; i < len(s); i++ {
		c := s[len(s)-1-i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return TT{}, fmt.Errorf("tt: invalid hex character %q", c)
		}
		t.words[i/16] |= v << (4 * (i % 16))
	}
	t.mask()
	return t, nil
}

// mask clears bits beyond 2^nVars in the final word.
func (t *TT) mask() {
	if t.nVars < 6 {
		t.words[0] &= usedMask(t.nVars)
	}
}

// NumVars returns the number of variables of the table.
func (t TT) NumVars() int { return t.nVars }

// Words returns a copy of the underlying words.
func (t TT) Words() []uint64 {
	w := make([]uint64, len(t.words))
	copy(w, t.words)
	return w
}

// Word returns the i-th underlying word without copying. For tables of up
// to six variables, Word(0) is the whole function and serves as a compact
// memoization key.
func (t TT) Word(i int) uint64 { return t.words[i] }

// Bit reports the value of minterm m.
func (t TT) Bit(m int) bool {
	return t.words[m>>6]&(1<<(uint(m)&63)) != 0
}

// Clone returns a deep copy of t.
func (t TT) Clone() TT {
	return TT{nVars: t.nVars, words: append([]uint64(nil), t.words...)}
}

func (t TT) checkArity(o TT, op string) {
	if t.nVars != o.nVars {
		panic(fmt.Sprintf("tt: %s arity mismatch: %d vs %d vars", op, t.nVars, o.nVars))
	}
}

// Not returns the complement of t.
func (t TT) Not() TT {
	r := New(t.nVars)
	for i, w := range t.words {
		r.words[i] = ^w
	}
	r.mask()
	return r
}

// And returns t AND o.
func (t TT) And(o TT) TT {
	t.checkArity(o, "And")
	r := New(t.nVars)
	for i := range t.words {
		r.words[i] = t.words[i] & o.words[i]
	}
	return r
}

// Or returns t OR o.
func (t TT) Or(o TT) TT {
	t.checkArity(o, "Or")
	r := New(t.nVars)
	for i := range t.words {
		r.words[i] = t.words[i] | o.words[i]
	}
	return r
}

// Xor returns t XOR o.
func (t TT) Xor(o TT) TT {
	t.checkArity(o, "Xor")
	r := New(t.nVars)
	for i := range t.words {
		r.words[i] = t.words[i] ^ o.words[i]
	}
	return r
}

// AndNot returns t AND NOT o.
func (t TT) AndNot(o TT) TT {
	t.checkArity(o, "AndNot")
	r := New(t.nVars)
	for i := range t.words {
		r.words[i] = t.words[i] &^ o.words[i]
	}
	return r
}

// Maj3 returns the three-input majority of a, b, c.
func Maj3(a, b, c TT) TT {
	a.checkArity(b, "Maj3")
	a.checkArity(c, "Maj3")
	r := New(a.nVars)
	for i := range a.words {
		x, y, z := a.words[i], b.words[i], c.words[i]
		r.words[i] = (x & y) | (x & z) | (y & z)
	}
	return r
}

// Mux returns ITE(sel, hi, lo) = sel·hi + sel'·lo.
func Mux(sel, hi, lo TT) TT {
	sel.checkArity(hi, "Mux")
	sel.checkArity(lo, "Mux")
	r := New(sel.nVars)
	for i := range sel.words {
		s := sel.words[i]
		r.words[i] = (s & hi.words[i]) | (^s & lo.words[i])
	}
	r.mask()
	return r
}

// Equal reports whether t and o represent the same function.
func (t TT) Equal(o TT) bool {
	if t.nVars != o.nVars {
		return false
	}
	for i := range t.words {
		if t.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsConst0 reports whether t is the constant-0 function.
func (t TT) IsConst0() bool {
	for _, w := range t.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether t is the constant-1 function.
func (t TT) IsConst1() bool {
	return t.Not().IsConst0()
}

// CountOnes returns the number of minterms on which t is 1.
func (t TT) CountOnes() int {
	n := 0
	for _, w := range t.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Prob returns the fraction of minterms on which t is 1 (the signal
// probability of the function under uniform independent inputs).
func (t TT) Prob() float64 {
	return float64(t.CountOnes()) / float64(uint64(1)<<uint(t.nVars))
}

// Cofactor0 returns the negative cofactor of t with respect to variable i.
func (t TT) Cofactor0(i int) TT {
	r := t.Clone()
	if i < 6 {
		shift := uint(1) << uint(i)
		m := ^varMasks[i]
		for w := range r.words {
			lo := r.words[w] & m
			r.words[w] = lo | lo<<shift
		}
		r.mask()
		return r
	}
	period := 1 << (i - 6)
	for w := 0; w < len(r.words); w += 2 * period {
		for k := 0; k < period; k++ {
			r.words[w+period+k] = r.words[w+k]
		}
	}
	return r
}

// Cofactor1 returns the positive cofactor of t with respect to variable i.
func (t TT) Cofactor1(i int) TT {
	r := t.Clone()
	if i < 6 {
		shift := uint(1) << uint(i)
		m := varMasks[i]
		for w := range r.words {
			hi := r.words[w] & m
			r.words[w] = hi | hi>>shift
		}
		r.mask()
		return r
	}
	period := 1 << (i - 6)
	for w := 0; w < len(r.words); w += 2 * period {
		for k := 0; k < period; k++ {
			r.words[w+k] = r.words[w+period+k]
		}
	}
	return r
}

// DependsOn reports whether t functionally depends on variable i.
func (t TT) DependsOn(i int) bool {
	return !t.Cofactor0(i).Equal(t.Cofactor1(i))
}

// Support returns the indices of variables t depends on.
func (t TT) Support() []int {
	var s []int
	for i := 0; i < t.nVars; i++ {
		if t.DependsOn(i) {
			s = append(s, i)
		}
	}
	return s
}

// FlipVar returns t with variable i complemented.
func (t TT) FlipVar(i int) TT {
	return Mux(Var(t.nVars, i), t.Cofactor0(i), t.Cofactor1(i))
}

// SwapVars returns t with variables i and j exchanged.
func (t TT) SwapVars(i, j int) TT {
	if i == j {
		return t.Clone()
	}
	vi, vj := Var(t.nVars, i), Var(t.nVars, j)
	f00 := t.Cofactor0(i).Cofactor0(j)
	f01 := t.Cofactor0(i).Cofactor1(j)
	f10 := t.Cofactor1(i).Cofactor0(j)
	f11 := t.Cofactor1(i).Cofactor1(j)
	// After the swap, the roles of i and j are exchanged: the cofactor at
	// (i=a, j=b) becomes the original cofactor at (i=b, j=a).
	r := vi.And(vj).And(f11)
	r = r.Or(vi.And(vj.Not()).And(f01))
	r = r.Or(vi.Not().And(vj).And(f10))
	r = r.Or(vi.Not().And(vj.Not()).And(f00))
	return r
}

// Permute returns t with variables permuted: output variable perm[i] takes
// the role of input variable i (new[x_perm[0],...] = t[x_0,...]).
func (t TT) Permute(perm []int) TT {
	if len(perm) != t.nVars {
		panic("tt: Permute length mismatch")
	}
	r := New(t.nVars)
	n := 1 << uint(t.nVars)
	for m := 0; m < n; m++ {
		if !t.Bit(m) {
			continue
		}
		pm := 0
		for i := 0; i < t.nVars; i++ {
			if m&(1<<uint(i)) != 0 {
				pm |= 1 << uint(perm[i])
			}
		}
		r.words[pm>>6] |= 1 << (uint(pm) & 63)
	}
	return r
}

// Hex returns the table as a hexadecimal string, most significant nibble
// first. Tables with fewer than 2 variables are padded to one nibble.
func (t TT) Hex() string {
	nibbles := 1 << uint(t.nVars) / 4
	if nibbles == 0 {
		nibbles = 1
	}
	var sb strings.Builder
	for i := nibbles - 1; i >= 0; i-- {
		v := (t.words[i/16] >> (4 * (uint(i) % 16))) & 0xF
		sb.WriteByte("0123456789abcdef"[v])
	}
	return sb.String()
}

// String implements fmt.Stringer.
func (t TT) String() string {
	return fmt.Sprintf("tt(%dv,0x%s)", t.nVars, t.Hex())
}
