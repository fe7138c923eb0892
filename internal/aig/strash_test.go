package aig

import (
	"context"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/mcnc"
)

// strashConsistent verifies the structural-hash invariants: And of every
// AND node's own fanins returns that node without building one; the chain
// of node v holds only AND nodes whose larger fanin is v, newest first, all
// inside the graph; and the chains hold every AND node exactly once.
func strashConsistent(t *testing.T, a *AIG) {
	t.Helper()
	ands := 0
	for i := range a.nodes {
		if a.nodes[i].kind != kindAnd {
			continue
		}
		ands++
		f := a.nodes[i].fanin
		n := len(a.nodes)
		if got := a.And(f[0], f[1]); got != MakeSignal(i, false) || len(a.nodes) != n {
			t.Fatalf("And of node %d's fanins %v gives %d with %d nodes, was %d", i, f, got, len(a.nodes), n)
		}
	}
	chained := 0
	for v := range a.nodes {
		prev := len(a.nodes)
		for i := int(a.nodes[v].head); i != 0; i = int(a.nodes[i].next) {
			if i < 0 || i >= prev {
				t.Fatalf("chain of node %d: %d follows %d (graph has %d nodes)", v, i, prev, len(a.nodes))
			}
			if a.nodes[i].kind != kindAnd || a.nodes[i].fanin[1].Node() != v {
				t.Fatalf("chain of node %d holds node %d, whose larger fanin is %d", v, i, a.nodes[i].fanin[1].Node())
			}
			prev = i
			chained++
		}
	}
	if chained != ands {
		t.Fatalf("chains hold %d nodes, graph has %d AND nodes", chained, ands)
	}
}

// links snapshots every node's strash links (head, next).
func links(a *AIG) [][2]int32 {
	l := make([][2]int32, len(a.nodes))
	for i := range a.nodes {
		l[i] = [2]int32{a.nodes[i].head, a.nodes[i].next}
	}
	return l
}

// sameLinks reports the first node whose links differ from the snapshot.
func sameLinks(t *testing.T, a *AIG, snap [][2]int32, context string) {
	t.Helper()
	if len(a.nodes) != len(snap) {
		t.Fatalf("%s: %d nodes, snapshot has %d", context, len(a.nodes), len(snap))
	}
	for i, l := range links(a) {
		if l != snap[i] {
			t.Fatalf("%s: node %d has links %v, snapshot %v", context, i, l, snap[i])
		}
	}
}

// Strash invariants must hold after every resyn2 pass on a real circuit
// (Rewrite and Refactor build candidates and roll them back), after fraig,
// and on a clone and a cleanup.
func TestStrashConsistentAfterPasses(t *testing.T) {
	n, err := mcnc.Generate("b9")
	if err != nil {
		t.Fatal(err)
	}
	a := FromNetwork(n)
	for _, res := range []*AIG{
		a.Balance(),
		a.Rewrite(),
		a.Refactor(),
		must(a.FraigPass(context.Background(), 4, 2, 2000)),
		a.Clone(),
		a.Cleanup(),
	} {
		strashConsistent(t, res)
	}
	strashConsistent(t, a)
}

// Random builds under nested checkpoints, with keys that hit surviving
// nodes and keys whose larger fanin is a surviving node, must leave every
// node's strash links as they were at the checkpoint after each rollback.
// Every And call is also checked against a reference map of the keys the
// graph holds.
func TestRollbackRestoresLinks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		a := randomAIG(r, 2+r.Intn(5), r.Intn(40))
		ref := map[[2]Signal]int{}
		for i := range a.nodes {
			if a.nodes[i].kind == kindAnd {
				ref[a.nodes[i].fanin] = i
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
			for i := top.cp; i < len(a.nodes); i++ {
				if a.nodes[i].kind == kindAnd {
					delete(ref, a.nodes[i].fanin)
				}
			}
			a.rollback(top.cp)
			sameLinks(t, a, top.snap, "after rollback")
		}
		for step := 0; step < 300; step++ {
			switch k := r.Intn(10); {
			case k == 0 && len(stack) < 5:
				stack = append(stack, level{a.checkpoint(), links(a)})
			case k == 1 && len(stack) > 0:
				pop(r.Intn(4) > 0)
			default:
				var x, y Signal
				if n := r.Intn(len(a.nodes)); k == 2 && a.nodes[n].kind == kindAnd {
					x, y = a.nodes[n].fanin[1], a.nodes[n].fanin[0] // a hit on n
				} else {
					x = MakeSignal(r.Intn(len(a.nodes)), r.Intn(2) == 0)
					y = MakeSignal(r.Intn(len(a.nodes)), r.Intn(2) == 0)
				}
				nodes := len(a.nodes)
				s := a.And(x, y)
				if x.Node() == y.Node() || x.Node() == 0 || y.Node() == 0 {
					continue // a trivial rule, no node
				}
				key := [2]Signal{min(x, y), max(x, y)}
				if want, hit := ref[key]; hit {
					if s.Node() != want || len(a.nodes) != nodes {
						t.Fatalf("trial %d: key %v is node %d, And gave %d and grew %d -> %d", trial, key, want, s.Node(), nodes, len(a.nodes))
					}
				} else {
					if s.Node() != nodes || len(a.nodes) != nodes+1 {
						t.Fatalf("trial %d: new key %v: And gave %d, want a new node %d", trial, key, s.Node(), nodes)
					}
					ref[key] = nodes
				}
			}
		}
		for len(stack) > 0 {
			pop(true)
		}
		strashConsistent(t, a)
	}
}

// The strash lives in the nodes: head and next add 8 bytes to the 16 of
// the fanins, the level and the kind, so a node is 24 bytes and the graph
// keeps no hash table beside its nodes.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 24 {
		t.Errorf("node is %d bytes, want 24", got)
	}
}
