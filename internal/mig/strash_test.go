package mig

import (
	"math/rand"
	"testing"
	"unsafe"
)

// strashConsistent verifies the structural-hash invariants: every entry
// maps a canonical fanin triple to a live node index with exactly those
// fanins, every majority node is findable, and every fanin of a majority
// node is flagged used (Maj skips the lookup of keys with an unused fanin).
func strashConsistent(t *testing.T, m *MIG) {
	t.Helper()
	for i := range m.nodes {
		if m.nodes[i].kind != kindMaj {
			continue
		}
		f := m.nodes[i].fanin
		for _, s := range f {
			if !m.nodes[s.Node()].used {
				t.Fatalf("fanin %d of node %d is not flagged used", s.Node(), i)
			}
		}
		idx, ok := m.strash.Get([3]uint32{uint32(f[0]), uint32(f[1]), uint32(f[2])})
		if !ok {
			t.Fatalf("node %d (%v) missing from strash", i, f)
		}
		if int(idx) != i {
			t.Fatalf("strash maps %v to %d, want %d", f, idx, i)
		}
	}
	if m.strash.Len() > len(m.nodes) {
		t.Fatalf("strash has %d entries for %d nodes (dangling entries)", m.strash.Len(), len(m.nodes))
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

// TestRollbackGuardedDelete pins the value-guarded deletion semantics: a
// rollback deleting by a key that (hypothetically) aliases an older
// surviving node must leave the survivor's entry intact. DeleteAbove is the
// mechanism; this exercises it through the table directly.
func TestRollbackGuardedDelete(t *testing.T) {
	m := New("guard")
	a := m.AddInput("a")
	b := m.AddInput("b")
	c := m.AddInput("c")
	s := m.Maj(a, b, c) // survivor, below any later checkpoint
	cp := m.checkpoint()
	// Simulate a buggy caller rolling back with the survivor's key in the
	// rolled-back range: the guard must refuse the delete.
	f := m.nodes[s.Node()].fanin
	if m.strash.DeleteAbove([3]uint32{uint32(f[0]), uint32(f[1]), uint32(f[2])}, int32(cp)) {
		t.Fatal("guarded delete evicted a surviving node's entry")
	}
	if again := m.Maj(a, b, c); again.Node() != s.Node() {
		t.Fatalf("survivor lost: Maj built %d, want %d", again.Node(), s.Node())
	}
	strashConsistent(t, m)
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

// The used flag sits in the padding after kind, so it costs no memory: a
// node stays 20 bytes.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 20 {
		t.Errorf("node is %d bytes, want 20", got)
	}
}
