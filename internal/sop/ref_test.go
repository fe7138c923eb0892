package sop

import (
	"sort"

	"repro/internal/tt"
)

// The table-per-cube engine the word engine replaced, kept as a reference:
// ISOP on tt.TT cofactors, espresso steps that build a table per cube and
// re-OR the rest of the cover per query, and factoring that counts
// literals in a map. The tests compare the word engine with it cube for
// cube and node for node.

func refISOP(on, dc tt.TT) []tt.Cube {
	cover, _ := refISOPRec(on, on.Or(dc), on.NumVars())
	return cover
}

func refISOPRec(on, onUpper tt.TT, numVars int) ([]tt.Cube, tt.TT) {
	if on.IsConst0() {
		return nil, tt.Const(on.NumVars(), false)
	}
	if onUpper.IsConst1() {
		return []tt.Cube{{}}, tt.Const(on.NumVars(), true)
	}
	v := -1
	for i := numVars - 1; i >= 0; i-- {
		if on.DependsOn(i) || onUpper.DependsOn(i) {
			v = i
			break
		}
	}
	if v < 0 {
		return []tt.Cube{{}}, tt.Const(on.NumVars(), true)
	}
	on0, on1 := on.Cofactor0(v), on.Cofactor1(v)
	up0, up1 := onUpper.Cofactor0(v), onUpper.Cofactor1(v)
	cover0, f0 := refISOPRec(on0.AndNot(up1), up0, v)
	cover1, f1 := refISOPRec(on1.AndNot(up0), up1, v)
	onStar := on0.AndNot(f0).Or(on1.AndNot(f1))
	coverStar, fStar := refISOPRec(onStar, up0.And(up1), v)
	res := fStar.Or(tt.Var(on.NumVars(), v).Not().And(f0)).Or(tt.Var(on.NumVars(), v).And(f1))
	out := make([]tt.Cube, 0, len(cover0)+len(cover1)+len(coverStar))
	for _, c := range cover0 {
		out = append(out, c.WithLit(v, false))
	}
	for _, c := range cover1 {
		out = append(out, c.WithLit(v, true))
	}
	out = append(out, coverStar...)
	return out, res
}

func refRestTT(c Cover, skip int) tt.TT {
	r := tt.Const(c.NumVars, false)
	for i, cube := range c.Cubes {
		if i != skip {
			r = r.Or(cube.TT(c.NumVars))
		}
	}
	return r
}

func refExpand(c *Cover, on, dc tt.TT) {
	care := on.Or(dc)
	for i := range c.Cubes {
		cube := c.Cubes[i]
		for v := 0; v < c.NumVars; v++ {
			if !cube.HasVar(v) {
				continue
			}
			trial := cube
			trial.Mask &^= 1 << uint(v)
			trial.Polarity &^= 1 << uint(v)
			if trial.TT(c.NumVars).AndNot(care).IsConst0() {
				cube = trial
			}
		}
		c.Cubes[i] = cube
	}
	var kept []tt.Cube
	for i := range c.Cubes {
		ci := c.Cubes[i].TT(c.NumVars)
		contained := false
		for j := range c.Cubes {
			if i == j {
				continue
			}
			cj := c.Cubes[j].TT(c.NumVars)
			if ci.AndNot(cj).IsConst0() {
				if !cj.AndNot(ci).IsConst0() || j < i {
					contained = true
					break
				}
			}
		}
		if !contained {
			kept = append(kept, c.Cubes[i])
		}
	}
	c.Cubes = kept
}

func refIrredundant(c *Cover, on tt.TT) {
	for i := 0; i < len(c.Cubes); {
		if on.And(c.Cubes[i].TT(c.NumVars)).AndNot(refRestTT(*c, i)).IsConst0() {
			c.Cubes = append(c.Cubes[:i], c.Cubes[i+1:]...)
			continue
		}
		i++
	}
}

func refReduce(c *Cover, on tt.TT) {
	for i := range c.Cubes {
		part := on.And(c.Cubes[i].TT(c.NumVars)).AndNot(refRestTT(*c, i))
		if part.IsConst0() {
			continue
		}
		var cube tt.Cube
		for v := 0; v < c.NumVars; v++ {
			pv := tt.Var(c.NumVars, v)
			if part.AndNot(pv).IsConst0() {
				cube = cube.WithLit(v, true)
			} else if part.And(pv).IsConst0() {
				cube = cube.WithLit(v, false)
			}
		}
		c.Cubes[i] = cube
	}
}

func refMinimize(on, dc tt.TT) Cover {
	c := Cover{NumVars: on.NumVars(), Cubes: refISOP(on, dc)}
	clone := func(c Cover) Cover { return Cover{NumVars: c.NumVars, Cubes: append([]tt.Cube(nil), c.Cubes...)} }
	best := clone(c)
	cost := func(c Cover) int { return len(c.Cubes)*1000 + c.NumLits() }
	bestCost := cost(best)
	for iter := 0; iter < 8; iter++ {
		refExpand(&c, on, dc)
		refIrredundant(&c, on)
		if cc := cost(c); cc < bestCost {
			best = clone(c)
			bestCost = cc
		} else if iter > 0 {
			break
		}
		refReduce(&c, on)
	}
	return best
}

func refFactor(c Cover) *Expr {
	if len(c.Cubes) == 0 {
		return ConstExpr(false)
	}
	if len(c.Cubes) == 1 && c.Cubes[0].Mask == 0 {
		return ConstExpr(true)
	}
	return refFactorRec(c.NumVars, c.Cubes)
}

func refFactorRec(numVars int, cubes []tt.Cube) *Expr {
	if len(cubes) == 0 {
		return ConstExpr(false)
	}
	if len(cubes) == 1 {
		return refCubeExpr(numVars, cubes[0])
	}
	type lit struct {
		v   int
		neg bool
	}
	count := map[lit]int{}
	for _, c := range cubes {
		for v := 0; v < numVars; v++ {
			if c.HasVar(v) {
				count[lit{v, !c.VarPhase(v)}]++
			}
		}
	}
	bestLit, bestCount := lit{}, 0
	var keys []lit
	for k := range count {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].v != keys[j].v {
			return keys[i].v < keys[j].v
		}
		return !keys[i].neg && keys[j].neg
	})
	for _, k := range keys {
		if count[k] > bestCount {
			bestLit, bestCount = k, count[k]
		}
	}
	if bestCount <= 1 {
		kids := make([]*Expr, len(cubes))
		for i, c := range cubes {
			kids[i] = refCubeExpr(numVars, c)
		}
		return &Expr{Kind: ExprOr, Kids: kids}
	}
	var quotient, remainder []tt.Cube
	for _, c := range cubes {
		if c.HasVar(bestLit.v) && c.VarPhase(bestLit.v) == !bestLit.neg {
			q := c
			q.Mask &^= 1 << uint(bestLit.v)
			q.Polarity &^= 1 << uint(bestLit.v)
			quotient = append(quotient, q)
		} else {
			remainder = append(remainder, c)
		}
	}
	qe := refFactorRec(numVars, quotient)
	le := Lit(bestLit.v, bestLit.neg)
	var prod *Expr
	if qe.Kind == ExprConst && qe.Val {
		prod = le
	} else {
		prod = &Expr{Kind: ExprAnd, Kids: []*Expr{le, qe}}
	}
	if len(remainder) == 0 {
		return prod
	}
	re := refFactorRec(numVars, remainder)
	if re.Kind == ExprOr {
		return &Expr{Kind: ExprOr, Kids: append([]*Expr{prod}, re.Kids...)}
	}
	return &Expr{Kind: ExprOr, Kids: []*Expr{prod, re}}
}

func refCubeExpr(numVars int, c tt.Cube) *Expr {
	var kids []*Expr
	for v := 0; v < numVars; v++ {
		if c.HasVar(v) {
			kids = append(kids, Lit(v, !c.VarPhase(v)))
		}
	}
	switch len(kids) {
	case 0:
		return ConstExpr(true)
	case 1:
		return kids[0]
	default:
		return &Expr{Kind: ExprAnd, Kids: kids}
	}
}

func refFactorTT(f tt.TT) (*Expr, bool) {
	pos := refFactor(refMinimize(f, tt.Const(f.NumVars(), false)))
	neg := refFactor(refMinimize(f.Not(), tt.Const(f.NumVars(), false)))
	if neg.NumLits() < pos.NumLits() {
		return neg, true
	}
	return pos, false
}
