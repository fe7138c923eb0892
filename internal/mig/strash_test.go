package mig

import (
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

// Strash invariants, used flags included, must hold after every
// optimization pass on a real circuit (every pass probes its candidates
// dry and builds only the winners) and on a clone.
func TestStrashConsistentAfterPasses(t *testing.T) {
	m := migFor(t, "b9")
	for _, res := range []*MIG{
		m.EliminatePass(3),
		m.PushUpPass(),
		m.ReshapePass(3, true),
		m.RewritePass(),
		must(m.WindowRewritePass(budget(2), 4, 5)),
		must(m.NPNRewritePass(budget(2), 4, 5)),
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
