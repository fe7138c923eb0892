package sop

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/tt"
)

// ExprKind distinguishes factored-form expression nodes.
type ExprKind uint8

// Expression node kinds.
const (
	ExprConst ExprKind = iota // Val holds the constant
	ExprLit                   // Var/NegLit hold the literal
	ExprAnd                   // Kids
	ExprOr                    // Kids
)

// Expr is a node of a factored Boolean expression tree.
type Expr struct {
	Kind ExprKind
	Val  bool
	Var  int
	Neg  bool
	Kids []*Expr
}

// Lit builds a literal expression.
func Lit(v int, neg bool) *Expr { return &Expr{Kind: ExprLit, Var: v, Neg: neg} }

// ConstExpr builds a constant expression.
func ConstExpr(v bool) *Expr { return &Expr{Kind: ExprConst, Val: v} }

// NumLits returns the number of literal leaves of the expression.
func (e *Expr) NumLits() int {
	switch e.Kind {
	case ExprLit:
		return 1
	case ExprAnd, ExprOr:
		n := 0
		for _, k := range e.Kids {
			n += k.NumLits()
		}
		return n
	default:
		return 0
	}
}

// TT evaluates the expression over n variables.
func (e *Expr) TT(n int) tt.TT {
	switch e.Kind {
	case ExprConst:
		return tt.Const(n, e.Val)
	case ExprLit:
		v := tt.Var(n, e.Var)
		if e.Neg {
			v = v.Not()
		}
		return v
	case ExprAnd:
		r := tt.Const(n, true)
		for _, k := range e.Kids {
			r = r.And(k.TT(n))
		}
		return r
	case ExprOr:
		r := tt.Const(n, false)
		for _, k := range e.Kids {
			r = r.Or(k.TT(n))
		}
		return r
	}
	panic("sop: bad expression kind")
}

// String renders the expression with x<i> literals.
func (e *Expr) String() string {
	switch e.Kind {
	case ExprConst:
		if e.Val {
			return "1"
		}
		return "0"
	case ExprLit:
		s := fmt.Sprintf("x%d", e.Var)
		if e.Neg {
			s += "'"
		}
		return s
	case ExprAnd:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			p := k.String()
			if k.Kind == ExprOr {
				p = "(" + p + ")"
			}
			parts[i] = p
		}
		return strings.Join(parts, "·")
	case ExprOr:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = k.String()
		}
		return strings.Join(parts, " + ")
	}
	return "?"
}

// Factor converts a cover into a factored expression tree using quick
// algebraic factoring: the most frequent literal is extracted recursively,
// f = l·Q + R, where Q is the quotient of the cubes containing l and R the
// remainder.
func Factor(c Cover) *Expr {
	var s Factorer
	r, _ := s.factorRec(append([]tt.Cube(nil), c.Cubes...))
	return s.expr(r)
}

// FactorTT minimizes f and factors the result, choosing the cheaper of f
// and f' (complementing the root when f' factors better). The second return
// value reports whether the expression computes f' instead of f.
func FactorTT(f tt.TT) (*Expr, bool) {
	var s Factorer
	return s.FactorTT(f)
}

// FactorTT is the package's FactorTT on s's scratch: once warm, it
// allocates only the returned expression, whatever the size of the
// covers.
func (s *Factorer) FactorTT(f tt.TT) (*Expr, bool) {
	s.load(f.NumVars())
	for i := range s.on {
		s.on[i] = f.Word(i)
	}
	copy(s.care, s.on)
	s.nodes = s.nodes[:0]
	pos, posLits := s.factorRec(s.minimize())
	for i := range s.on {
		s.on[i] = ^s.on[i] & s.full
	}
	copy(s.care, s.on)
	neg, negLits := s.factorRec(s.minimize())
	if negLits < posLits {
		return s.expr(neg), true
	}
	return s.expr(pos), false
}

// node is an expression node in a Factorer's scratch. The kids of an And
// or Or start at kid and are linked through next; -1 ends a list.
type node struct {
	kind      ExprKind
	val, neg  bool
	v         uint8
	kid, next int32
}

func (s *Factorer) add(nd node) int32 {
	nd.next = -1
	s.nodes = append(s.nodes, nd)
	return int32(len(s.nodes) - 1)
}

// link appends node k to the list from *first to *last; *last < 0 starts
// a new list.
func (s *Factorer) link(first, last *int32, k int32) {
	if *last < 0 {
		*first = k
	} else {
		s.nodes[*last].next = k
	}
	*last = k
}

// factorRec factors cubes, which it reorders and rewrites in place, and
// returns the expression's root node and literal count.
func (s *Factorer) factorRec(cubes []tt.Cube) (int32, int) {
	switch len(cubes) {
	case 0:
		return s.add(node{kind: ExprConst}), 0
	case 1:
		return s.cubeExpr(cubes[0])
	}
	// Literal frequencies: variable v's positive literal counts at 2v, its
	// negative literal at 2v+1, so the first maximum in index order is the
	// lowest variable's, positive before negative.
	var count [2 * tt.MaxVars]int
	for _, c := range cubes {
		for m := c.Mask; m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			count[2*v+int(^c.Polarity>>v&1)]++
		}
	}
	best, bestCount := 0, 0
	for l, k := range count {
		if k > bestCount {
			best, bestCount = l, k
		}
	}
	if bestCount <= 1 {
		// No shared literal: plain sum of cube expressions.
		first, last, lits := int32(-1), int32(-1), 0
		for _, c := range cubes {
			k, n := s.cubeExpr(c)
			s.link(&first, &last, k)
			lits += n
		}
		return s.add(node{kind: ExprOr, kid: first}), lits
	}
	// Divide by the literal: the quotient's cubes, without it, move to the
	// front and the remainder's behind them, each in order.
	v, pos := best/2, best%2 == 0
	bit := uint32(1) << v
	q := 0
	s.spare = s.spare[:0]
	for _, c := range cubes {
		if c.Mask&bit != 0 && (c.Polarity&bit != 0) == pos {
			cubes[q] = tt.Cube{Mask: c.Mask &^ bit, Polarity: c.Polarity &^ bit}
			q++
		} else {
			s.spare = append(s.spare, c)
		}
	}
	copy(cubes[q:], s.spare)
	qe, lits := s.factorRec(cubes[:q])
	prod := s.add(node{kind: ExprLit, v: uint8(v), neg: !pos})
	lits++
	if nd := s.nodes[qe]; nd.kind != ExprConst || !nd.val {
		s.nodes[prod].next = qe
		prod = s.add(node{kind: ExprAnd, kid: prod})
	}
	if q == len(cubes) {
		return prod, lits
	}
	re, rlits := s.factorRec(cubes[q:])
	if s.nodes[re].kind == ExprOr {
		re = s.nodes[re].kid
	}
	s.nodes[prod].next = re
	return s.add(node{kind: ExprOr, kid: prod}), lits + rlits
}

// cubeExpr returns the product of c's literals and their count.
func (s *Factorer) cubeExpr(c tt.Cube) (int32, int) {
	first, last := int32(-1), int32(-1)
	for m := c.Mask; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		s.link(&first, &last, s.add(node{kind: ExprLit, v: uint8(v), neg: c.Polarity>>v&1 == 0}))
	}
	switch n := bits.OnesCount32(c.Mask); n {
	case 0:
		return s.add(node{kind: ExprConst, val: true}), 0
	case 1:
		return first, 1
	default:
		return s.add(node{kind: ExprAnd, kid: first}), n
	}
}

// expr copies the tree rooted at node r into Exprs carved from two
// allocations, one for the nodes and one for all their Kids.
func (s *Factorer) expr(r int32) *Expr {
	nodes, kids := s.size(r)
	b := slabs{exprs: make([]Expr, nodes)}
	if kids > 0 {
		b.kids = make([]*Expr, kids)
	}
	return b.build(s.nodes, r)
}

// size returns the number of nodes of the tree rooted at r and the number
// of their kids.
func (s *Factorer) size(r int32) (nodes, kids int) {
	nodes = 1
	if k := s.nodes[r].kind; k == ExprAnd || k == ExprOr {
		for c := s.nodes[r].kid; c >= 0; c = s.nodes[c].next {
			n, k := s.size(c)
			nodes, kids = nodes+n, kids+k+1
		}
	}
	return nodes, kids
}

// slabs holds the unused parts of expr's two allocations.
type slabs struct {
	exprs []Expr
	kids  []*Expr
}

func (b *slabs) build(nodes []node, r int32) *Expr {
	nd := nodes[r]
	e := &b.exprs[0]
	b.exprs = b.exprs[1:]
	*e = Expr{Kind: nd.kind, Val: nd.val, Var: int(nd.v), Neg: nd.neg}
	if nd.kind == ExprAnd || nd.kind == ExprOr {
		n := 0
		for c := nd.kid; c >= 0; c = nodes[c].next {
			n++
		}
		e.Kids, b.kids = b.kids[:n:n], b.kids[n:]
		i := 0
		for c := nd.kid; c >= 0; c = nodes[c].next {
			e.Kids[i] = b.build(nodes, c)
			i++
		}
	}
	return e
}
