package sat

import "testing"

// FuzzSolver feeds byte-derived CNFs (at most 10 variables, so brute force
// stays instant) through the solver and cross-checks the verdict against
// exhaustive enumeration; Sat verdicts must come with genuine models, and
// a solve confined to a byte-derived variable subset must keep the
// Confine contract (see checkConfined). Run
// with: go test -run Fuzz -fuzz=FuzzSolver -fuzztime=10s ./internal/sat
func FuzzSolver(f *testing.F) {
	f.Add([]byte{3, 2, 1, 4, 9})
	f.Add([]byte{0x10, 0xff, 0x07, 0x22, 0x31, 0x44, 0x05, 0x66})
	f.Add([]byte{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nv = 10
		// Decode: each byte is one literal (var = b%nv, sign = bit 7 of b);
		// a zero byte terminates the current clause. At most 60 clauses.
		var cnf [][]Lit
		var cl []Lit
		for _, b := range data {
			if b == 0 {
				if len(cl) > 0 {
					cnf = append(cnf, cl)
					cl = nil
				}
				continue
			}
			cl = append(cl, MkLit(Var(int(b&0x7f)%nv), b&0x80 != 0))
			if len(cl) == 5 {
				cnf = append(cnf, cl)
				cl = nil
			}
		}
		if len(cl) > 0 {
			cnf = append(cnf, cl)
		}
		if len(cnf) == 0 || len(cnf) > 60 {
			return
		}
		want, _ := bruteForce(nv, cnf)
		s := solverFor(nv, cnf)
		if s == nil {
			if want {
				t.Fatal("AddClause proved UNSAT on a satisfiable instance")
			}
			return
		}
		got := s.Solve()
		if got == Unknown {
			t.Fatal("Unknown without a conflict budget")
		}
		if (got == Sat) != want {
			t.Fatalf("solver=%v brute=%v on %v", got, want, cnf)
		}
		if got == Sat {
			checkModel(t, s, cnf)
		}
		// Confined branching: the subset is the variables whose bit is set
		// in the first literal byte.
		var subset []Var
		for v := 0; v < nv; v++ {
			if data[0]>>uint(v%8)&1 == 1 {
				subset = append(subset, Var(v))
			}
		}
		checkConfined(t, solverFor(nv, cnf), nv, cnf, subset, want)
		// The incremental contract: the solved instance accepts more
		// clauses and stays correct.
		if got == Sat {
			// First through a retractable group: the extra clause must bind
			// under the group literal and vanish again after release.
			extra := []Lit{MkLit(0, true), MkLit(1, false)}
			want2, _ := bruteForce(nv, append(cnf, extra))
			g := s.PushGroup()
			ok := s.AddClause(extra...)
			s.EndGroup()
			got2 := ok && s.Solve(s.GroupLit(g)) == Sat
			if got2 != want2 {
				t.Fatalf("grouped incremental: solver=%v brute=%v", got2, want2)
			}
			s.ReleaseGroup(g)
			if s.Solve() != Sat {
				t.Fatal("released group still constrains the instance")
			}
			checkModel(t, s, cnf)
			// Then permanently.
			cnf = append(cnf, extra)
			ok = s.AddClause(extra...)
			got2 = ok && s.Solve() == Sat
			if got2 != want2 {
				t.Fatalf("incremental: solver=%v brute=%v", got2, want2)
			}
		}
	})
}
