package sat

import (
	"sort"
	"sync/atomic"
)

// lbool values: +1 true, -1 false, 0 unassigned.
const (
	lTrue  int8 = 1
	lFalse int8 = -1
	lUndef int8 = 0
)

// clause is one problem or learnt clause. Watched literals are lits[0] and
// lits[1]; for reason clauses the propagated literal is lits[0].
type clause struct {
	lits   []Lit
	act    float64
	learnt bool
	del    bool
}

// watcher is one entry of a watch list: the clause reference plus a blocker
// literal whose satisfaction lets propagation skip the clause without
// touching its memory.
type watcher struct {
	ref     int32
	blocker Lit
}

// Solver is an incremental CDCL SAT solver.
type Solver struct {
	// MaxConflicts bounds one Solve call: it counts at most this many
	// conflicts and returns Unknown instead of going past them. 0 means
	// unlimited.
	MaxConflicts int64

	// Stop, when non-nil, is polled every few hundred search steps during
	// Solve; when it reports true the call returns Unknown promptly
	// (typically well before a conflict budget runs out). It is how a
	// context deadline or cancellation interrupts a long solve: callers
	// bind it to ctx.Done(). The solver stays usable afterwards.
	Stop func() bool

	ok       bool // false once the clause set is unsatisfiable at level 0
	stopTick int  // steps since Stop was last polled

	db      []clause
	watches [][]watcher // indexed by Lit

	assigns  []int8  // per var
	vlevel   []int32 // per var: decision level of the assignment
	reason   []int32 // per var: clause ref that propagated it, -1 = decision
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	polarity []bool // phase saving: last assigned value
	heap     []Var  // max-heap on activity (ties: lower var first)
	heapIdx  []int32

	// Branching confinement (Confine): while confined, only variables
	// whose decision flag is set enter the order heap, so Solve branches
	// on them alone; decided lists the flagged variables.
	decision []bool
	decided  []Var
	confined bool

	claInc      float64
	learnts     int
	maxLearnts  int
	seen        []bool
	toClear     []Var
	model       []int8 // last Sat assignment, empty after any other verdict; reused
	conflicts   int64
	restarts    int64
	propagation int64

	// arena backs problem-clause literal storage so AddClause stays
	// allocation-free on a warmed-up (Reset) solver.
	arena []Lit

	// Clause groups (see groups.go): curGroup routes AddClause/NewVar into
	// the open group, freeVars recycles variables reclaimed from released
	// groups, pendingFree holds released-group variables awaiting a Purge.
	groups      []groupInfo
	curGroup    int32
	freeVars    []Var
	pendingFree []Var
	deadClauses int
}

// constructions counts NewSolver calls process-wide. It is a diagnostic
// for reuse-sensitive callers: the fraig passes hold one solver per worker
// and assert through it that solving N candidate pairs does not construct
// N solvers.
var constructions atomic.Int64

// SolverConstructions returns the process-wide count of NewSolver calls.
func SolverConstructions() int64 { return constructions.Load() }

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	constructions.Add(1)
	return &Solver{ok: true, varInc: 1, claInc: 1, curGroup: -1}
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of live problem clauses plus learnt clauses.
func (s *Solver) NumClauses() int {
	n := 0
	for i := range s.db {
		if !s.db[i].del {
			n++
		}
	}
	return n
}

// Conflicts returns the total conflicts over the solver's lifetime
// (Reset does not clear it).
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Restarts returns the total restarts over the solver's lifetime
// (Reset does not clear it).
func (s *Solver) Restarts() int64 { return s.restarts }

// NewVar creates a fresh variable — or recycles one reclaimed from a
// released clause group (see ReleaseGroup/Purge), whose solver slots were
// reset to the fresh-variable state when it was reclaimed. While a group is
// open (PushGroup), the variable is owned by that group.
func (s *Solver) NewVar() Var {
	var v Var
	if n := len(s.freeVars); n > 0 {
		v = s.freeVars[n-1]
		s.freeVars = s.freeVars[:n-1]
	} else {
		v = Var(len(s.assigns))
		s.assigns = append(s.assigns, lUndef)
		s.vlevel = append(s.vlevel, 0)
		s.reason = append(s.reason, -1)
		s.activity = append(s.activity, 0)
		s.polarity = append(s.polarity, false)
		s.seen = append(s.seen, false)
		s.heapIdx = append(s.heapIdx, -1)
		s.decision = append(s.decision, false)
		if cap(s.watches) >= len(s.watches)+2 {
			// Post-Reset revival: re-expose the retained watch-list slots
			// so their backing arrays are reused allocation-free.
			s.watches = s.watches[:len(s.watches)+2]
			s.watches[2*int(v)] = s.watches[2*int(v)][:0]
			s.watches[2*int(v)+1] = s.watches[2*int(v)+1][:0]
		} else {
			s.watches = append(s.watches, nil, nil)
		}
	}
	s.heapInsert(v)
	if s.curGroup >= 0 {
		g := &s.groups[s.curGroup]
		g.vars = append(g.vars, v)
	}
	return v
}

func (s *Solver) litValue(l Lit) int8 {
	v := s.assigns[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over existing variables. It returns false when the
// clause set has become unsatisfiable at level 0 (and the solver is dead).
// Adding clauses between Solve calls is allowed (incremental interface).
// While a clause group is open (PushGroup) the clause is gated on
// the group's activation literal; adding to a released group is a no-op.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	gate := LitUndef
	var grp *groupInfo
	if s.curGroup >= 0 {
		grp = &s.groups[s.curGroup]
		if grp.released {
			return true // released group: the clause would be inert
		}
		gate = MkLit(grp.act, true)
	}
	s.cancelUntil(0)
	// Sort, dedupe, drop level-0-false literals, detect tautologies and
	// level-0-satisfied clauses. The literal storage comes from the clause
	// arena so a warmed-up (Reset) solver adds clauses allocation-free.
	reserve := len(lits) + 1
	ls := s.allocLits(reserve)[:0]
	ls = append(ls, lits...)
	if gate != LitUndef {
		ls = append(ls, gate)
	}
	sortLits(ls)
	j := 0
	var prev Lit = LitUndef
	for _, l := range ls {
		switch {
		case l == prev || s.litValue(l) == lFalse:
			continue
		case l == prev.Not() || s.litValue(l) == lTrue:
			s.arena = s.arena[:len(s.arena)-reserve]
			return true // tautology or already satisfied at level 0
		}
		ls[j] = l
		prev = l
		j++
	}
	ls = ls[:j]
	switch len(ls) {
	case 0:
		s.arena = s.arena[:len(s.arena)-reserve]
		s.ok = false
		return false
	case 1:
		l := ls[0]
		s.arena = s.arena[:len(s.arena)-reserve]
		s.uncheckedEnqueue(l, -1)
		if s.propagate() >= 0 {
			s.ok = false
			return false
		}
		return true
	}
	s.arena = s.arena[:len(s.arena)-(reserve-j)]
	if grp != nil {
		grp.clauses++
	}
	s.attach(s.pushClause(ls, false))
	return true
}

// allocLits reserves n literal slots at the tail of the clause arena. The
// caller may return unused tail slots by truncating s.arena. When the
// current chunk is exhausted a bigger one is allocated; clauses referencing
// the old chunk keep it alive, and after a Reset the grown chunk is reused
// from the start, so steady-state reuse allocates nothing.
func (s *Solver) allocLits(n int) []Lit {
	if cap(s.arena)-len(s.arena) < n {
		c := 2 * cap(s.arena)
		if c < 4096 {
			c = 4096
		}
		if c < n {
			c = n
		}
		s.arena = make([]Lit, 0, c)
	}
	off := len(s.arena)
	s.arena = s.arena[:off+n]
	return s.arena[off : off+n : off+n]
}

// sortLits insertion-sorts a literal slice. Clauses are short (gate
// gadgets), so this beats sort.Slice and avoids its closure allocation.
func sortLits(ls []Lit) {
	for i := 1; i < len(ls); i++ {
		l := ls[i]
		j := i - 1
		for j >= 0 && ls[j] > l {
			ls[j+1] = ls[j]
			j--
		}
		ls[j+1] = l
	}
}

// Reset restores the solver to the logical state of a freshly constructed
// one while retaining every allocation (variable slots, watch lists, the
// clause arena). A Reset solver makes byte-for-byte the same decisions as a
// new solver given the same variable and clause sequence — which is what
// lets a fraig worker reuse one solver across thousands of candidate pairs
// without perturbing the deterministic verdict stream. The lifetime
// counters (Conflicts, Restarts) survive, as does the memory; MaxConflicts
// and Stop are cleared like any other per-problem state.
func (s *Solver) Reset() {
	s.MaxConflicts = 0
	s.Stop = nil
	s.ok = true
	s.stopTick = 0
	s.db = s.db[:0]
	s.watches = s.watches[:0] // per-lit lists revived lazily by NewVar
	s.assigns = s.assigns[:0]
	s.vlevel = s.vlevel[:0]
	s.reason = s.reason[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.activity = s.activity[:0]
	s.varInc = 1
	s.polarity = s.polarity[:0]
	s.heap = s.heap[:0]
	s.heapIdx = s.heapIdx[:0]
	s.decision = s.decision[:0]
	s.decided = s.decided[:0]
	s.confined = false
	s.claInc = 1
	s.learnts = 0
	s.maxLearnts = 0
	s.seen = s.seen[:0]
	s.toClear = s.toClear[:0]
	s.model = s.model[:0]
	s.arena = s.arena[:0]
	s.groups = s.groups[:0]
	s.curGroup = -1
	s.freeVars = s.freeVars[:0]
	s.pendingFree = s.pendingFree[:0]
	s.deadClauses = 0
}

// freeVar returns a reclaimed variable to the fresh-variable state and
// pushes it onto the recycle list for a later NewVar.
func (s *Solver) freeVar(v Var) {
	s.vlevel[v] = 0
	s.reason[v] = -1
	s.activity[v] = 0
	s.polarity[v] = false
	s.decision[v] = false
	s.heapRemove(v)
	s.watches[2*int(v)] = s.watches[2*int(v)][:0]
	s.watches[2*int(v)+1] = s.watches[2*int(v)+1][:0]
	s.freeVars = append(s.freeVars, v)
}

func (s *Solver) pushClause(ls []Lit, learnt bool) int32 {
	ref := int32(len(s.db))
	s.db = append(s.db, clause{lits: ls, learnt: learnt})
	if learnt {
		s.learnts++
	}
	return ref
}

func (s *Solver) attach(ref int32) {
	c := &s.db[ref]
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{ref, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{ref, c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.vlevel[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the pending trail. It returns the
// reference of a conflicting clause, or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagation++
		ws := s.watches[p]
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			if s.litValue(w.blocker) == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			c := &s.db[w.ref]
			i++
			// Ensure the falsified watched literal is lits[1].
			falseLit := p.Not()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[j] = watcher{w.ref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{w.ref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.ref, first}
			j++
			if s.litValue(first) == lFalse {
				// Conflict: keep the remaining watchers and bail out.
				for i < len(ws) {
					ws[j] = ws[i]
					i++
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return w.ref
			}
			s.uncheckedEnqueue(first, w.ref)
		}
		s.watches[p] = ws[:j]
	}
	return -1
}

// analyze derives the first-UIP learnt clause from a conflict and returns it
// together with the backtrack level. learnt[0] is the asserting literal.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := []Lit{LitUndef}
	counter := 0
	p := LitUndef
	idx := len(s.trail) - 1
	for {
		c := &s.db[confl]
		if c.learnt {
			s.claBump(c)
		}
		start := 0
		if p != LitUndef {
			start = 1 // lits[0] is p itself for reason clauses
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if !s.seen[v] && s.vlevel[v] > 0 {
				s.seen[v] = true
				s.toClear = append(s.toClear, v)
				s.varBump(v)
				if int(s.vlevel[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Basic minimization: drop literals whose reason clause is entirely
	// covered by the remaining learnt literals.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		keep := r < 0
		if !keep {
			for _, q := range s.db[r].lits[1:] {
				if !s.seen[q.Var()] && s.vlevel[q.Var()] > 0 {
					keep = true
					break
				}
			}
		}
		if keep {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]

	// Backtrack level: highest level among learnt[1:]; move that literal to
	// position 1 so it is watched.
	bt := 0
	if len(learnt) > 1 {
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if s.vlevel[learnt[i].Var()] > s.vlevel[learnt[mi].Var()] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
		bt = int(s.vlevel[learnt[1].Var()])
	}
	return learnt, bt
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = -1
		s.heapInsert(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = lim
}

// Solve decides satisfiability of the clause set under the given assumption
// literals. It returns Sat (model available through Value), Unsat, or
// Unknown when MaxConflicts is exhausted. The solver remains usable after
// any verdict: more variables and clauses may be added and Solve called
// again (learnt clauses are kept).
func (s *Solver) Solve(assumps ...Lit) Status {
	s.model = s.model[:0]
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() >= 0 {
		s.ok = false
		return Unsat
	}
	if s.maxLearnts == 0 {
		s.maxLearnts = len(s.db)/3 + 1000
	}
	budget := int64(-1)
	if s.MaxConflicts > 0 {
		budget = s.conflicts + s.MaxConflicts
	}
	restarts := int64(0)
	restartLimit := s.conflicts + 64*luby(restarts)

	for {
		// Cancellation poll: every loop iteration runs one propagation
		// round, so a few hundred iterations pass in well under a
		// millisecond — cheap enough to keep cancellation prompt even
		// against multi-minute conflict budgets.
		if s.Stop != nil {
			if s.stopTick++; s.stopTick >= 256 {
				s.stopTick = 0
				if s.Stop() {
					s.cancelUntil(0)
					return Unknown
				}
			}
		}
		confl := s.propagate()
		if confl >= 0 {
			if budget >= 0 && s.conflicts >= budget {
				// A conflict chain would run past the budget.
				s.cancelUntil(0)
				return Unknown
			}
			s.conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				ref := s.pushClause(learnt, true)
				s.claBump(&s.db[ref])
				s.attach(ref)
				s.uncheckedEnqueue(learnt[0], ref)
			}
			s.varDecay()
			s.claDecay()
			continue
		}

		if budget >= 0 && s.conflicts >= budget {
			s.cancelUntil(0)
			return Unknown
		}
		if s.conflicts >= restartLimit {
			restarts++
			s.restarts++
			restartLimit = s.conflicts + 64*luby(restarts)
			s.cancelUntil(0)
			continue
		}
		if s.learnts >= s.maxLearnts {
			s.reduceDB()
		}

		// Next decision: pending assumptions first.
		next := LitUndef
		for s.decisionLevel() < len(assumps) {
			p := assumps[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				// Already satisfied: open a dummy level so the indexing
				// assumption-per-level stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				// Conflicts with the current assignment: unsatisfiable
				// under the assumptions (the clause set itself may still
				// be satisfiable).
				s.cancelUntil(0)
				return Unsat
			}
			next = p
			break
		}
		if next == LitUndef {
			for {
				v, ok := s.heapPop()
				if !ok {
					// Full assignment: satisfiable.
					s.model = append(s.model[:0], s.assigns...)
					s.cancelUntil(0)
					return Sat
				}
				if s.assigns[v] == lUndef {
					next = MkLit(v, !s.polarity[v])
					break
				}
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, -1)
	}
}

// Confine restricts branching to vars until the next Confine or
// Unconfine: Solve decides only on these variables (MiniSat's
// decision-variable flag, set for exactly this set), and every other
// variable is assigned by propagation or stays unassigned. Unsat stays a
// proof. Sat means every flagged variable is assigned and propagation
// reached a fixpoint without conflict, so every clause over flagged
// variables only is satisfied, and so is every clause with at most one
// unassigned literal. For a Tseitin-encoded cone whose inputs are all
// flagged, that covers every clause of the cone. After the first call,
// Confine costs in proportion to the old and the new set, not to the
// solver.
func (s *Solver) Confine(vars []Var) {
	s.cancelUntil(0)
	s.confined = true
	for _, v := range s.decided {
		s.decision[v] = false
	}
	for _, v := range s.heap {
		s.heapIdx[v] = -1
	}
	s.heap = s.heap[:0]
	s.decided = append(s.decided[:0], vars...)
	for _, v := range vars {
		if s.decision[v] {
			continue // listed twice
		}
		s.decision[v] = true
		if s.assigns[v] == lUndef {
			s.heapIdx[v] = int32(len(s.heap))
			s.heap = append(s.heap, v)
		}
	}
	// Bottom-up heapify: the pop order depends only on heapLess, a total
	// order, so it matches one-by-one insertion.
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.heapDown(i)
	}
}

// Unconfine lifts Confine: every variable is a branching candidate again,
// so Sat once more means a full satisfying assignment.
func (s *Solver) Unconfine() {
	if !s.confined {
		return
	}
	s.cancelUntil(0)
	for _, v := range s.decided {
		s.decision[v] = false
	}
	s.decided = s.decided[:0]
	s.confined = false
	// Recycled variables wait outside the heap until NewVar hands them out.
	for _, v := range s.freeVars {
		s.seen[v] = true
	}
	for v := range s.assigns {
		if s.assigns[v] == lUndef && !s.seen[v] {
			s.heapInsert(Var(v))
		}
	}
	for _, v := range s.freeVars {
		s.seen[v] = false
	}
}

// Value returns the model value of v after a Sat verdict. Unconstrained
// variables, and variables a confined solve left unassigned, read false.
func (s *Solver) Value(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// ValueLit returns the model value of a literal after a Sat verdict.
func (s *Solver) ValueLit(l Lit) bool {
	return s.Value(l.Var()) != l.Sign()
}

// --- activities ---

func (s *Solver) varBump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapIdx[v] >= 0 {
		s.heapUp(int(s.heapIdx[v]))
	}
}

func (s *Solver) varDecay() { s.varInc *= 1 / 0.95 }

func (s *Solver) claBump(c *clause) {
	c.act += s.claInc
	if c.act > 1e100 {
		for i := range s.db {
			s.db[i].act *= 1e-100
		}
		s.claInc *= 1e-100
	}
}

func (s *Solver) claDecay() { s.claInc *= 1 / 0.999 }

// --- learnt-clause database reduction ---

// locked reports whether the clause is the reason of its first literal's
// assignment (such clauses must survive reduction).
func (s *Solver) locked(ref int32) bool {
	c := &s.db[ref]
	v := c.lits[0].Var()
	return s.assigns[v] != lUndef && s.reason[v] == ref && s.litValue(c.lits[0]) == lTrue
}

// reduceDB removes roughly half of the learnt clauses, lowest activity
// first (binary and locked clauses are kept), then compacts the database.
func (s *Solver) reduceDB() {
	var cand []int32
	for i := range s.db {
		c := &s.db[i]
		if c.learnt && !c.del && len(c.lits) > 2 && !s.locked(int32(i)) {
			cand = append(cand, int32(i))
		}
	}
	sort.Slice(cand, func(i, j int) bool { return s.db[cand[i]].act < s.db[cand[j]].act })
	for _, ref := range cand[:len(cand)/2] {
		s.db[ref].del = true
		s.learnts--
	}
	s.maxLearnts += s.maxLearnts / 2
	s.compact()
}

// compact drops deleted clauses, remapping reasons and rebuilding the watch
// lists.
func (s *Solver) compact() {
	remap := make([]int32, len(s.db))
	j := 0
	for i := range s.db {
		if s.db[i].del {
			remap[i] = -1
			continue
		}
		remap[i] = int32(j)
		s.db[j] = s.db[i]
		j++
	}
	s.db = s.db[:j]
	for v := range s.reason {
		if r := s.reason[v]; r >= 0 {
			s.reason[v] = remap[r]
		}
	}
	for l := range s.watches {
		s.watches[l] = s.watches[l][:0]
	}
	for i := range s.db {
		s.attach(int32(i))
	}
}

// --- order heap (max-heap on activity, ties broken toward lower vars) ---

func (s *Solver) heapLess(a, b Var) bool {
	return s.activity[a] > s.activity[b] || (s.activity[a] == s.activity[b] && a < b)
}

func (s *Solver) heapInsert(v Var) {
	if s.heapIdx[v] >= 0 || (s.confined && !s.decision[v]) {
		return
	}
	s.heapIdx[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

// heapRemove deletes v from the heap (no-op when absent).
func (s *Solver) heapRemove(v Var) {
	i := int(s.heapIdx[v])
	if i < 0 {
		return
	}
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapIdx[v] = -1
	if i < len(s.heap) {
		s.heap[i] = last
		s.heapIdx[last] = int32(i)
		s.heapDown(i)
		s.heapUp(int(s.heapIdx[last]))
	}
}

func (s *Solver) heapPop() (Var, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapIdx[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapIdx[last] = 0
		s.heapDown(0)
	}
	return v, true
}

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapIdx[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			break
		}
		if c+1 < len(s.heap) && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapIdx[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

// luby returns the i-th element of the Luby restart sequence
// (1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...).
func luby(i int64) int64 {
	size, seq := int64(1), 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return 1 << seq
}
