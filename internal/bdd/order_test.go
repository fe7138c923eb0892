package bdd

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// interleavedComparator builds the classic order-sensitive function
// f = (a0·b0) + (a1·b1) + ... With inputs declared a0..an b0..bn, the
// declaration order is exponential while the interleaved (DFS) order is
// linear.
func interleavedComparator(n int) *netlist.Network {
	net := netlist.New("cmp")
	as := make([]netlist.Signal, n)
	bs := make([]netlist.Signal, n)
	for i := 0; i < n; i++ {
		as[i] = net.AddInput("a")
	}
	for i := 0; i < n; i++ {
		bs[i] = net.AddInput("b")
	}
	acc := netlist.SigConst0
	for i := 0; i < n; i++ {
		acc = net.AddGate(netlist.Or, acc, net.AddGate(netlist.And, as[i], bs[i]))
	}
	net.AddOutput("f", acc)
	return net
}

func TestStaticOrderInterleaves(t *testing.T) {
	net := interleavedComparator(8)
	order := StaticOrder(net)
	if len(order) != 16 {
		t.Fatalf("order length %d", len(order))
	}
	// DFS from the output should visit a_i and b_i adjacently.
	pos := make([]int, 16)
	for k, v := range order {
		pos[v] = k
	}
	adjacent := 0
	for i := 0; i < 8; i++ {
		d := pos[i] - pos[8+i]
		if d < 0 {
			d = -d
		}
		if d == 1 {
			adjacent++
		}
	}
	if adjacent < 6 {
		t.Errorf("only %d of 8 pairs adjacent in static order", adjacent)
	}
}

func TestOrderedBuildSmaller(t *testing.T) {
	net := interleavedComparator(10)
	mPlain, rootsPlain, err := BuildNetwork(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	mOrd, rootsOrd, err := BuildNetworkOrdered(net, 0, StaticOrder(net))
	if err != nil {
		t.Fatal(err)
	}
	plain := mPlain.CountNodes(rootsPlain)
	ord := mOrd.CountNodes(rootsOrd)
	if ord >= plain {
		t.Errorf("static order not smaller: %d vs %d", ord, plain)
	}
	t.Logf("comparator BDD: declaration order %d nodes, DFS order %d nodes", plain, ord)
}

func TestDecomposeOrderedPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		net := randomNetwork(r, 7, 30)
		dec, err := DecomposeNetworkOrdered(net, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := net.CollapseTT()
		if err != nil {
			t.Fatal(err)
		}
		t2, err := dec.CollapseTT()
		if err != nil {
			t.Fatal(err)
		}
		for i := range t1 {
			if !t1[i].Equal(t2[i]) {
				t.Fatalf("trial %d output %d changed", trial, i)
			}
		}
	}
}

func TestDecomposeOrderedExplicitOrder(t *testing.T) {
	net := interleavedComparator(4)
	// Reverse order is a valid (if poor) explicit order.
	order := make([]int, 8)
	for i := range order {
		order[i] = 7 - i
	}
	dec, err := DecomposeNetworkOrdered(net, 0, order)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := net.CollapseTT()
	t2, _ := dec.CollapseTT()
	if !t1[0].Equal(t2[0]) {
		t.Error("explicit order changed function")
	}
}

func TestOrderedLimitTrips(t *testing.T) {
	net := interleavedComparator(16)
	// Force the worst order and a small limit.
	order := make([]int, 32)
	for i := 0; i < 16; i++ {
		order[i] = i
		order[16+i] = 16 + i
	}
	// Declaration order on this function needs ~2^16 nodes.
	_, _, err := BuildNetworkOrdered(net, 1000, order)
	if err != ErrLimit {
		t.Errorf("want ErrLimit, got %v", err)
	}
	// The good order fits easily.
	if _, _, err := BuildNetworkOrdered(net, 1000, StaticOrder(net)); err != nil {
		t.Errorf("static order failed: %v", err)
	}
}

func TestSiftOrderImproves(t *testing.T) {
	// Force a bad declaration order by reversing pairs; sifting must find a
	// smaller (or equal) shared BDD than the static order.
	net := interleavedComparator(7)
	static := StaticOrder(net)
	sifted := SiftOrder(net, 0, 16)
	sz := func(ord []int) int {
		m, roots, err := BuildNetworkOrdered(net, 0, ord)
		if err != nil {
			t.Fatal(err)
		}
		return m.CountNodes(roots)
	}
	if sz(sifted) > sz(static) {
		t.Errorf("sifting made things worse: %d vs %d", sz(sifted), sz(static))
	}
}

func TestSiftOrderIsPermutation(t *testing.T) {
	net := interleavedComparator(5)
	order := SiftOrder(net, 0, 16)
	seen := map[int]bool{}
	for _, v := range order {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[v] = true
	}
	if len(order) != 10 {
		t.Fatalf("order length %d", len(order))
	}
}

func TestSiftOrderSkipsLargeCircuits(t *testing.T) {
	net := interleavedComparator(12) // 24 inputs > maxVars
	order := SiftOrder(net, 0, 16)
	static := StaticOrder(net)
	for i := range order {
		if order[i] != static[i] {
			t.Fatal("large circuit should keep the static order")
		}
	}
}

// TestSiftOrderPinned pins the order sifting picks under a 1<<18-node
// limit, and the shared size it reaches, on the MCNC circuits of at most 16
// inputs. (BDS sifts them under a smaller budget, where trials overflow and
// the orders differ.) Every trial rebuilds into one manager reset in
// between, so anything a reset leaves behind moves them.
func TestSiftOrderPinned(t *testing.T) {
	pins := []struct {
		name   string
		order  []int
		shared int
	}{
		{"alu4", []int{12, 0, 13, 8, 9, 4, 11, 10, 1, 5, 2, 6, 3, 7}, 594},
		{"misex3", []int{11, 13, 8, 4, 9, 10, 2, 7, 6, 12, 1, 5, 3, 0}, 2259},
	}
	for _, p := range pins {
		n, err := mcnc.Generate(p.name)
		if err != nil {
			t.Fatal(err)
		}
		order := SiftOrder(n, 1<<18, 16)
		m, roots, err := BuildNetworkOrdered(n, 1<<18, order)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !slices.Equal(order, p.order) || m.CountNodes(roots) != p.shared {
			t.Errorf("%s: sifted to %v with %d nodes, want %v with %d", p.name, order, m.CountNodes(roots), p.order, p.shared)
		}
	}
}

// BenchmarkSiftOrder measures rebuild-based sifting on a 14-input circuit.
func BenchmarkSiftOrder(b *testing.B) {
	n, err := mcnc.Generate("alu4")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if order := SiftOrder(n, 1<<18, 16); len(order) != n.NumInputs() {
			b.Fatalf("order of %d inputs, want %d", len(order), n.NumInputs())
		}
	}
}
