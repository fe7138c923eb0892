package mig

import (
	"math/rand"
	"testing"
	"unsafe"
)

// strashConsistent verifies the structural-hash invariants: a lookup of
// every majority node's own fanins returns that node; the chain of node v
// holds only majority nodes whose largest fanin is v, newest first, all
// inside the graph; the chains hold every majority node exactly once; and
// every fanin of a majority node is flagged used (Maj skips the lookup of
// keys with an unused fanin).
func strashConsistent(t *testing.T, m *MIG) {
	t.Helper()
	majs := 0
	for i := range m.nodes {
		if m.nodes[i].kind != kindMaj {
			continue
		}
		majs++
		f := m.nodes[i].fanin
		for _, s := range f {
			if !m.nodes[s.Node()].used {
				t.Fatalf("fanin %d of node %d is not flagged used", s.Node(), i)
			}
		}
		if got := m.lookup(f[0], f[1], f[2]); int(got) != i {
			t.Fatalf("lookup of node %d's fanins %v gives %d", i, f, got)
		}
	}
	chained := 0
	for v := range m.nodes {
		prev := len(m.nodes)
		for i := int(m.nodes[v].head); i != 0; i = int(m.nodes[i].next) {
			if i < 0 || i >= prev {
				t.Fatalf("chain of node %d: %d follows %d (graph has %d nodes)", v, i, prev, len(m.nodes))
			}
			if m.nodes[i].kind != kindMaj || m.nodes[i].fanin[2].Node() != v {
				t.Fatalf("chain of node %d holds node %d, whose largest fanin is %d", v, i, m.nodes[i].fanin[2].Node())
			}
			prev = i
			chained++
		}
	}
	if chained != majs {
		t.Fatalf("chains hold %d nodes, graph has %d majority nodes", chained, majs)
	}
}

// links snapshots every node's strash links (head, next).
func links(m *MIG) [][2]int32 {
	l := make([][2]int32, len(m.nodes))
	for i := range m.nodes {
		l[i] = [2]int32{m.nodes[i].head, m.nodes[i].next}
	}
	return l
}

// sameLinks reports the first node whose links differ from the snapshot.
func sameLinks(t *testing.T, m *MIG, snap [][2]int32, context string) {
	t.Helper()
	if len(m.nodes) != len(snap) {
		t.Fatalf("%s: %d nodes, snapshot has %d", context, len(m.nodes), len(snap))
	}
	for i, l := range links(m) {
		if l != snap[i] {
			t.Fatalf("%s: node %d has links %v, snapshot %v", context, i, l, snap[i])
		}
	}
}

// TestRollbackNeverResurrects is the regression test for the stale-strash
// hazard: after checkpoint/rollback cycles, a Maj call with the fanins of a
// rolled-back (dead) node must build a fresh node — never return a signal
// pointing past the end of the node table.
func TestRollbackNeverResurrects(t *testing.T) {
	m := New("roll")
	var sigs []Signal
	for i := 0; i < 6; i++ {
		sigs = append(sigs, m.AddInput(string(rune('a'+i))))
	}
	rng := rand.New(rand.NewSource(99))
	var rolledKeys [][3]Signal
	for round := 0; round < 200; round++ {
		cp := m.checkpoint()
		// Build a few probe nodes.
		for k := 0; k < 3; k++ {
			a := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0)
			b := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0)
			c := sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0)
			s := m.Maj(a, b, c)
			if n := s.Node(); n >= len(m.nodes) {
				t.Fatalf("round %d: Maj resurrected node %d past table end %d", round, n, len(m.nodes))
			}
			if s.Node() >= cp && m.nodes[s.Node()].kind == kindMaj {
				rolledKeys = append(rolledKeys, m.nodes[s.Node()].fanin)
			}
		}
		if rng.Intn(3) > 0 {
			m.rollback(cp)
		} else {
			// Keep this round's nodes; they are now permanent.
			rolledKeys = rolledKeys[:0]
		}
		// Re-probing a rolled-back key must yield an in-range node.
		for _, f := range rolledKeys {
			s := m.Maj(f[0], f[1], f[2])
			if s.Node() >= len(m.nodes) {
				t.Fatalf("round %d: dead key %v resurrected out-of-range node %d", round, f, s.Node())
			}
			m.rollback(cp)
		}
		rolledKeys = rolledKeys[:0]
	}
	strashConsistent(t, m)
}

// TestRollbackGuardedDelete: a rollback past a survivor must leave the
// survivor findable, even when the rolled-back nodes share its chain (the
// same largest fanin) and one of them repeats its key in another polarity.
func TestRollbackGuardedDelete(t *testing.T) {
	m := New("guard")
	a := m.AddInput("a")
	b := m.AddInput("b")
	c := m.AddInput("c")
	s := m.Maj(a, b, c) // survivor, below any later checkpoint
	cp := m.checkpoint()
	m.Maj(a.Not(), b, c)
	m.Maj(a, b.Not(), c)
	if again := m.Maj(b, c, a); again != s {
		t.Fatalf("before rollback: Maj gave %d, want the survivor %d", again, s)
	}
	m.rollback(cp)
	if again := m.Maj(c, a, b); again != s || len(m.nodes) != cp {
		t.Fatalf("survivor lost: Maj gave %d with %d nodes, want %d with %d", again, len(m.nodes), s, cp)
	}
	strashConsistent(t, m)
}

// Random builds under nested checkpoints, with keys that hit surviving
// nodes and keys whose largest fanin is a surviving node, must leave every
// node's strash links as they were at the checkpoint after each rollback.
// Every Maj call is also checked against a reference map of the canonical
// keys the graph holds.
func TestRollbackRestoresLinks(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(r, 2+r.Intn(5), r.Intn(40))
		ref := map[[3]Signal]int{}
		for i := range m.nodes {
			if m.nodes[i].kind == kindMaj {
				ref[m.nodes[i].fanin] = i
			}
		}
		type level struct {
			cp   int
			snap [][2]int32
		}
		var stack []level
		pop := func(roll bool) {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !roll {
				return // the nodes stay, under the enclosing checkpoint
			}
			for i := top.cp; i < len(m.nodes); i++ {
				if m.nodes[i].kind == kindMaj {
					delete(ref, m.nodes[i].fanin)
				}
			}
			m.rollback(top.cp)
			sameLinks(t, m, top.snap, "after rollback")
		}
		for step := 0; step < 300; step++ {
			switch k := r.Intn(10); {
			case k == 0 && len(stack) < 5:
				stack = append(stack, level{m.checkpoint(), links(m)})
			case k == 1 && len(stack) > 0:
				pop(r.Intn(4) > 0)
			default:
				var op [3]Signal
				if n := r.Intn(len(m.nodes)); k == 2 && m.nodes[n].kind == kindMaj {
					op = m.nodes[n].fanin // a hit on n, in some order and polarity
					r.Shuffle(3, func(i, j int) { op[i], op[j] = op[j], op[i] })
					if r.Intn(2) == 0 {
						op = [3]Signal{op[0].Not(), op[1].Not(), op[2].Not()}
					}
				} else {
					for i := range op {
						op[i] = MakeSignal(r.Intn(len(m.nodes)), r.Intn(2) == 0)
					}
				}
				nodes := len(m.nodes)
				s := m.Maj(op[0], op[1], op[2])
				x, y, z, _, ok := majNorm(op[0], op[1], op[2])
				if !ok {
					continue
				}
				key := [3]Signal{x, y, z}
				if want, hit := ref[key]; hit {
					if s.Node() != want || len(m.nodes) != nodes {
						t.Fatalf("trial %d: key %v is node %d, Maj gave %d and grew %d -> %d", trial, key, want, s.Node(), nodes, len(m.nodes))
					}
				} else {
					if s.Node() != nodes || len(m.nodes) != nodes+1 {
						t.Fatalf("trial %d: new key %v: Maj gave %d, want a new node %d", trial, key, s.Node(), nodes)
					}
					ref[key] = nodes
				}
			}
		}
		for len(stack) > 0 {
			pop(true)
		}
		strashConsistent(t, m)
	}
}

// Strash invariants, used flags included, must hold after every
// optimization pass on a real circuit (the window engine and ActivityPass
// roll back; the Ω/Ψ passes probe dry) and on a clone.
func TestStrashConsistentAfterPasses(t *testing.T) {
	m := migFor(t, "b9")
	for _, res := range []*MIG{
		m.EliminatePass(3),
		m.PushUpPass(),
		m.ReshapePass(3, true),
		m.RewritePass(),
		m.WindowRewritePass(4, 5, 2),
		m.NPNRewritePass(4, 5, 2),
		m.ActivityPass(nil),
		m.Clone(),
		m.Cleanup(),
	} {
		strashConsistent(t, res)
	}
	// The input graph itself must be unchanged by all of the above.
	strashConsistent(t, m)
}

// The strash lives in the nodes: head and next add 8 bytes to the 20 of
// the fanins, the level, the kind and the used flag (which sits in the
// kind's padding), so a node is 28 bytes and the graph keeps no hash table
// beside its nodes.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 28 {
		t.Errorf("node is %d bytes, want 28", got)
	}
}
