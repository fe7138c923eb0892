package tt

import "strings"

// Cube is a product term over the variables of a truth table. Bit i of Mask
// means variable i appears in the cube; bit i of Polarity gives its phase
// (1 = positive literal). Polarity bits outside Mask must be zero.
type Cube struct {
	Mask     uint32
	Polarity uint32
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int {
	n := 0
	for m := c.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// HasVar reports whether variable i appears in the cube.
func (c Cube) HasVar(i int) bool { return c.Mask&(1<<uint(i)) != 0 }

// VarPhase reports the phase of variable i (true = positive). Only
// meaningful when HasVar(i).
func (c Cube) VarPhase(i int) bool { return c.Polarity&(1<<uint(i)) != 0 }

// WithLit returns the cube extended with a literal of variable i.
func (c Cube) WithLit(i int, positive bool) Cube {
	c.Mask |= 1 << uint(i)
	if positive {
		c.Polarity |= 1 << uint(i)
	} else {
		c.Polarity &^= 1 << uint(i)
	}
	return c
}

// TT returns the truth table of the cube over n variables. The empty cube is
// the constant-1 function.
func (c Cube) TT(n int) TT {
	r := Const(n, true)
	for i := 0; i < n; i++ {
		if !c.HasVar(i) {
			continue
		}
		v := Var(n, i)
		if !c.VarPhase(i) {
			v = v.Not()
		}
		r = r.And(v)
	}
	return r
}

// String renders the cube in PLA style over n variables, e.g. "1-0".
func (c Cube) PLA(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch {
		case !c.HasVar(i):
			sb.WriteByte('-')
		case c.VarPhase(i):
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ISOP computes an irredundant sum-of-products cover of the incompletely
// specified function with onset on and care set (onset ∪ offset complement
// handled by caller) given as [on, dc]: the cover covers all of on and
// nothing outside on ∪ dc. It implements the Minato–Morreale recursive
// procedure on truth-table words (see AppendISOP).
func ISOP(on, dc TT) []Cube {
	if on.NumVars() != dc.NumVars() {
		panic("tt: ISOP arity mismatch")
	}
	var buf []uint64
	return AppendISOP(nil, on.words, on.Or(dc).words, on.nVars, &buf)
}

// SOP computes an irredundant SOP cover of a completely specified function.
func SOP(f TT) []Cube {
	return ISOP(f, Const(f.NumVars(), false))
}

// AppendISOP appends to dst an irredundant cover of the interval
// [on, upper] (on must imply upper) and returns the extended slice. on and
// upper hold tables over n variables in the word layout of Word. The
// recursion splits on the topmost variable either table depends on and
// emits the cubes that need its negative literal, then those that need its
// positive literal, then those that need neither. A table over at most six
// variables is one word held in registers; larger tables are word slices
// whose cofactors by a variable above 5 are their two halves, and the
// recursion's tables come from *buf, which grows to six tables' worth and
// may be reused across calls.
func AppendISOP(dst []Cube, on, upper []uint64, n int, buf *[]uint64) []Cube {
	if n <= 6 {
		dst, _ = isop6(dst, replicate(on[0], n), replicate(upper[0], n), n)
		return dst
	}
	w := wordCount(n)
	if cap(*buf) < 6*w {
		*buf = make([]uint64, 6*w)
	}
	s := (*buf)[:6*w]
	return isopWords(dst, on[:w], upper[:w], n, s[:w], s[w:])
}

// replicate repeats the 2^n valid bits of a table over n ≤ 6 variables
// across the word, so the word reads as the same function over six.
func replicate(w uint64, n int) uint64 {
	w &= usedMask(n)
	for s := 1 << n; s < 64; s *= 2 {
		w |= w << s
	}
	return w
}

// isop6 covers [on, upper] for tables that do not depend on the variables
// from nv up, each one replicated word, and returns the cover's function.
func isop6(dst []Cube, on, upper uint64, nv int) ([]Cube, uint64) {
	if on == 0 {
		return dst, 0
	}
	if upper == ^uint64(0) {
		return append(dst, Cube{}), ^uint64(0)
	}
	v := nv - 1
	for v >= 0 && !depends6(on, v) && !depends6(upper, v) {
		v--
	}
	if v < 0 {
		// Both tables are constant; on implying upper rules this out.
		return append(dst, Cube{}), ^uint64(0)
	}
	on0, on1 := cofactor6(on, v, false), cofactor6(on, v, true)
	up0, up1 := cofactor6(upper, v, false), cofactor6(upper, v, true)
	start := len(dst)
	dst, f0 := isop6(dst, on0&^up1, up0, v)
	mid := len(dst)
	dst, f1 := isop6(dst, on1&^up0, up1, v)
	addLit(dst[start:mid], v, false)
	addLit(dst[mid:], v, true)
	dst, fs := isop6(dst, on0&^f0|on1&^f1, up0&up1, v)
	return dst, fs | f0&^varMasks[v] | f1&varMasks[v]
}

// isopWords is isop6 for tables over nv > 6 variables held in
// 1<<(nv-6) words. res receives the cover's function, and free is
// scratch for the recursion's tables.
func isopWords(dst []Cube, on, upper []uint64, nv int, res, free []uint64) []Cube {
	if allWords(on, 0) {
		clear(res)
		return dst
	}
	if allWords(upper, ^uint64(0)) {
		fillWords(res, ^uint64(0))
		return append(dst, Cube{})
	}
	v := nv - 1
	for v >= 6 && !dependsWords(on, v) && !dependsWords(upper, v) {
		v--
	}
	if v < 6 {
		// Every word holds the same function of the low six variables.
		var f uint64
		dst, f = isop6(dst, on[0], upper[0], 6)
		fillWords(res, f)
		return dst
	}
	// The tables repeat every 2p words; their cofactors by v are the
	// halves of the first period.
	p := 1 << (v - 6)
	on0, on1 := on[:p], on[p:2*p]
	up0, up1 := upper[:p], upper[p:2*p]
	t, u, f0, f1, fs := free[:p], free[p:2*p], free[2*p:3*p], free[3*p:4*p], free[4*p:5*p]
	free = free[5*p:]
	sub := func(dst []Cube, on, upper, res []uint64) []Cube {
		if v == 6 {
			var f uint64
			dst, f = isop6(dst, on[0], upper[0], 6)
			res[0] = f
			return dst
		}
		return isopWords(dst, on, upper, v, res, free)
	}
	for k := range t {
		t[k] = on0[k] &^ up1[k]
	}
	start := len(dst)
	dst = sub(dst, t, up0, f0)
	for k := range t {
		t[k] = on1[k] &^ up0[k]
	}
	mid := len(dst)
	dst = sub(dst, t, up1, f1)
	addLit(dst[start:mid], v, false)
	addLit(dst[mid:], v, true)
	for k := range t {
		t[k] = on0[k]&^f0[k] | on1[k]&^f1[k]
		u[k] = up0[k] & up1[k]
	}
	dst = sub(dst, t, u, fs)
	for k := 0; k < p; k++ {
		res[k] = fs[k] | f0[k]
		res[p+k] = fs[k] | f1[k]
	}
	for k := 2 * p; k < len(res); k += 2 * p {
		copy(res[k:k+2*p], res[:2*p])
	}
	return dst
}

func addLit(cubes []Cube, v int, positive bool) {
	for i := range cubes {
		cubes[i] = cubes[i].WithLit(v, positive)
	}
}

// depends6 reports whether a replicated word depends on variable v < 6.
func depends6(x uint64, v int) bool {
	return (x^x>>(1<<v))&^varMasks[v] != 0
}

// cofactor6 returns the cofactor of a replicated word by variable v < 6,
// replicated over both values of v.
func cofactor6(x uint64, v int, positive bool) uint64 {
	s := 1 << v
	if positive {
		x &= varMasks[v]
		return x | x>>s
	}
	x &^= varMasks[v]
	return x | x<<s
}

// dependsWords reports whether a table of words depends on variable v ≥ 6.
func dependsWords(t []uint64, v int) bool {
	p := 1 << (v - 6)
	for b := 0; b < len(t); b += 2 * p {
		for k := b; k < b+p; k++ {
			if t[k] != t[k+p] {
				return true
			}
		}
	}
	return false
}

func allWords(t []uint64, w uint64) bool {
	for _, x := range t {
		if x != w {
			return false
		}
	}
	return true
}

func fillWords(t []uint64, w uint64) {
	for i := range t {
		t[i] = w
	}
}

// CoverTT returns the truth table of a cube cover over n variables.
func CoverTT(cover []Cube, n int) TT {
	r := Const(n, false)
	for _, c := range cover {
		r = r.Or(c.TT(n))
	}
	return r
}

// CoverLits returns the total number of literals in a cover.
func CoverLits(cover []Cube) int {
	n := 0
	for _, c := range cover {
		n += c.NumLits()
	}
	return n
}
