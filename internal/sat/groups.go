package sat

// Clause groups: MiniSat-style activation-literal scoping that lets one
// incremental solver serve many short-lived subproblems (the miter sweep's
// per-candidate XOR gadgets).
//
// PushGroup allocates a fresh activation variable act and opens the group.
// Every clause C added while the group is open is stored as (C ∨ ¬act), so
// the group is inert until a Solve call assumes GroupLit (= act). Because
// +act occurs in no clause at all, resolution can never eliminate ¬act:
// every learnt clause derived from a group clause carries ¬act too.
// ReleaseGroup therefore retires the whole group — problem clauses, learnt
// consequences and all — with the single level-0 unit ¬act, which
// permanently satisfies them. Purge later deletes the dead clauses
// physically and recycles the group's variables for future NewVar calls.
//
// Groups do not nest: PushGroup while another group is open simply switches
// the open group. Activation variables themselves are never recycled (their
// level-0 assignment pins them), which costs one variable per group pushed.

// Group identifies a clause group of one Solver.
type Group int32

// groupInfo is the solver-side record of one group.
type groupInfo struct {
	act      Var   // activation variable; assume +act to enable the group
	vars     []Var // variables created while the group was open
	clauses  int   // live problem clauses gated on act
	released bool
}

// PushGroup creates a new clause group and opens it: subsequent NewVar and
// AddClause calls belong to the group until EndGroup or another PushGroup.
func (s *Solver) PushGroup() Group {
	s.curGroup = -1 // the activation var is owned by no group
	act := s.NewVar()
	g := Group(len(s.groups))
	s.groups = append(s.groups, groupInfo{act: act})
	s.curGroup = int32(g)
	return g
}

// EndGroup closes the open group; subsequent clauses are permanent again.
func (s *Solver) EndGroup() { s.curGroup = -1 }

// GroupLit returns the assumption literal that activates group g in a
// Solve call: Solve(s.GroupLit(g), ...) sees the group's clauses, a Solve
// without it does not.
func (s *Solver) GroupLit(g Group) Lit { return MkLit(s.groups[g].act, false) }

// ReleaseGroup permanently deactivates group g. Its clauses — and every
// learnt clause derived from them — become satisfied at level 0 and are
// physically deleted by the next Purge, which also recycles the group's
// variables; a Purge triggers automatically once dead clauses are a quarter
// of the database. Releasing twice is a no-op.
func (s *Solver) ReleaseGroup(g Group) {
	gi := &s.groups[g]
	if gi.released {
		return
	}
	gi.released = true
	saved := s.curGroup
	if saved == int32(g) {
		saved = -1
	}
	s.curGroup = -1
	s.AddClause(MkLit(gi.act, true)) // ungated unit ¬act
	s.curGroup = saved
	s.deadClauses += gi.clauses
	gi.clauses = 0
	s.pendingFree = append(s.pendingFree, gi.vars...)
	gi.vars = nil
	if s.deadClauses >= 1000 && s.deadClauses*4 >= len(s.db) {
		s.Purge()
	}
}

// Purge physically deletes every clause satisfied at decision level 0
// (which covers all clauses of released groups and the learnt clauses
// derived from them), compacts the clause database, and recycles
// released-group variables that no longer occur anywhere. Callers normally
// rely on the automatic trigger in ReleaseGroup; Purge is exported for
// callers that want the memory back at a specific point.
func (s *Solver) Purge() {
	if !s.ok {
		return
	}
	s.cancelUntil(0)
	for i := range s.db {
		c := &s.db[i]
		if c.del {
			continue
		}
		for _, l := range c.lits {
			if s.litValue(l) == lTrue { // level 0: permanently satisfied
				c.del = true
				if c.learnt {
					s.learnts--
				}
				break
			}
		}
	}
	s.compact()
	s.deadClauses = 0
	if len(s.pendingFree) == 0 {
		return
	}
	// Occurrence scan: a pending variable is recyclable only once no clause
	// mentions it and no level-0 assignment pins it. Variables still in use
	// (cross-group clauses, level-0 consequences) stay pending for a later
	// Purge.
	for i := range s.db {
		for _, l := range s.db[i].lits {
			s.seen[l.Var()] = true
		}
	}
	kept := s.pendingFree[:0]
	for _, v := range s.pendingFree {
		if s.seen[v] || s.assigns[v] != lUndef {
			kept = append(kept, v)
			continue
		}
		s.freeVar(v)
	}
	s.pendingFree = kept
	for i := range s.db {
		for _, l := range s.db[i].lits {
			s.seen[l.Var()] = false
		}
	}
}
