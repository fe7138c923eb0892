// Package sat is the repository's native Boolean-satisfiability subsystem:
// a compact CDCL solver plus Tseitin CNF encoders for the generic netlist
// IR. It is the exact oracle behind the SAT engine of internal/equiv
// (miter-based combinational equivalence checking with counterexamples) and
// the fraig SAT-sweeping passes of internal/mig and internal/aig.
//
// The solver implements the standard modern core:
//
//   - two-watched-literal unit propagation with blocker literals,
//   - first-UIP conflict analysis with basic clause minimization,
//   - VSIDS-style variable activities with phase saving,
//   - Luby-sequence restarts,
//   - activity-driven learnt-clause database reduction, and
//   - incremental solving under assumptions with an optional conflict
//     budget (Solve returns Unknown when the budget is exhausted; the
//     miter sweep, the fraig passes and exact synthesis bound single
//     queries with it, while the miter's output solve runs unbounded).
//
// Literals follow the same packed encoding as the graph packages:
// variable<<1 | sign, sign set meaning negated.
package sat

import "fmt"

// Var is a propositional variable index (0-based).
type Var int32

// Lit is a literal: variable<<1 | sign (sign set = negated).
type Lit int32

// LitUndef is the absent literal.
const LitUndef Lit = -1

// MkLit builds a literal from a variable and a sign (neg = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// String renders the literal in DIMACS style (1-based, '-' for negation).
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is a solver verdict.
type Status int8

// Solver verdicts. Unknown is returned when the conflict budget
// (Solver.MaxConflicts) is exhausted before a decision is reached.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}
