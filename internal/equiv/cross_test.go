package equiv_test

// Cross-engine property tests on the MCNC suite: the SAT engine must agree
// with the exact/BDD engines on every circuit, both on equivalent pairs
// (a circuit against its remajorized restructuring) and on deliberately
// corrupted copies — a flipped output and seeded mid-cone gate mutations —
// and every SAT refutation must carry a genuine counterexample.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/equiv"
	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// reference decides the pair with the strongest classical engine that can
// handle it: exact, then BDD; ok=false when neither can.
func reference(t *testing.T, a, b *netlist.Network) (bool, bool) {
	t.Helper()
	if res, err := equiv.Check(context.Background(), a, b, equiv.Options{Engine: "exact"}); err == nil {
		return res.Equivalent, true
	}
	if res, err := equiv.Check(context.Background(), a, b, equiv.Options{Engine: "bdd", BDDLimit: 1 << 20}); err == nil {
		return res.Equivalent, true
	}
	return false, false
}

func checkCexDistinguishes(t *testing.T, name, detail string, a, b *netlist.Network) {
	t.Helper()
	idx := strings.Index(detail, "inputs=")
	if idx < 0 {
		t.Errorf("%s: SAT refutation without counterexample: %q", name, detail)
		return
	}
	bits := detail[idx+len("inputs="):]
	if len(bits) != a.NumInputs() {
		t.Errorf("%s: counterexample has %d bits, want %d", name, len(bits), a.NumInputs())
		return
	}
	words := make([]uint64, len(bits))
	for i, c := range bits {
		if c == '1' {
			words[i] = 1
		}
	}
	wa, wb := a.OutputWords(words), b.OutputWords(words)
	for i := range wa {
		if (wa[i]^wb[i])&1 != 0 {
			return
		}
	}
	t.Errorf("%s: counterexample does not distinguish the networks", name)
}

// mutate returns a copy of n with one live gate in the middle third of
// the depth corrupted — its op swapped or one fanin complemented — and a
// description of the change. The result may still be equivalent to n
// when the mutation is masked; the reference engines decide.
func mutate(n *netlist.Network, r *rand.Rand) (*netlist.Network, string) {
	m := n.Clean()
	levels, depth := m.Levels(), m.Depth()
	var mid []int
	for i, nd := range m.Nodes {
		switch nd.Op {
		case netlist.Const0, netlist.Input, netlist.Buf, netlist.Not:
			continue
		}
		if levels[i] > 1 && 3*levels[i] >= depth && 3*levels[i] <= 2*depth {
			mid = append(mid, i)
		}
	}
	if len(mid) == 0 {
		return nil, ""
	}
	i := mid[r.Intn(len(mid))]
	nd := &m.Nodes[i]
	swap := map[netlist.Op]netlist.Op{
		netlist.And: netlist.Or, netlist.Or: netlist.And,
		netlist.Nand: netlist.Nor, netlist.Nor: netlist.Nand,
		netlist.Xor: netlist.Xnor, netlist.Xnor: netlist.Xor,
		netlist.Maj: netlist.Mux, netlist.Mux: netlist.Maj,
	}
	if to, ok := swap[nd.Op]; ok && r.Intn(2) == 0 {
		desc := fmt.Sprintf("node %d %v->%v", i, nd.Op, to)
		nd.Op = to
		return m, desc
	}
	k := r.Intn(len(nd.Fanins))
	nd.Fanins[k] = nd.Fanins[k].Not()
	return m, fmt.Sprintf("node %d (%v) fanin %d complemented", i, nd.Op, k)
}

func TestSATAgreesWithClassicalEnginesMCNC(t *testing.T) {
	r := rand.New(rand.NewSource(0x5EED))
	for _, name := range mcnc.Names() {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		if testing.Short() && n.NumGates() > 3000 {
			continue
		}
		// The 8k-gate s38417 stand-in costs minutes under -race; the CI
		// sat job sweeps it through the same engines end to end
		// (migbench -mig-script "cleanup; fraig" -verify=sat).
		if n.NumGates() > 5000 {
			continue
		}
		// Equivalent pair: the circuit against its remajorized form.
		variant := n.Remajorize()
		res, err := equiv.Check(context.Background(), n, variant, equiv.Options{Engine: "sat"})
		if err != nil {
			t.Fatalf("%s: sat engine: %v", name, err)
		}
		if !res.Equivalent {
			t.Errorf("%s: SAT refutes the remajorized circuit (%s)", name, res.Detail)
		}
		ref, classical := reference(t, n, variant)
		if classical && ref != res.Equivalent {
			t.Errorf("%s: SAT=%v but exact/BDD=%v on the equivalent pair", name, res.Equivalent, ref)
		}

		// Corrupted copy: one output polarity flipped — functionally
		// different by construction.
		bad := n.Clean()
		bad.Outputs[len(bad.Outputs)/2].Sig = bad.Outputs[len(bad.Outputs)/2].Sig.Not()
		res, err = equiv.Check(context.Background(), n, bad, equiv.Options{Engine: "sat"})
		if err != nil {
			t.Fatalf("%s: sat engine on corrupted copy: %v", name, err)
		}
		if res.Equivalent {
			t.Errorf("%s: SAT missed a flipped output", name)
			continue
		}
		checkCexDistinguishes(t, name, res.Detail, n, bad)
		if ref, ok := reference(t, n, bad); ok && ref != res.Equivalent {
			t.Errorf("%s: SAT=%v but exact/BDD=%v on the corrupted pair", name, res.Equivalent, ref)
		}

		// Seeded mid-cone mutations: the sweep meets the corruption at
		// internal candidates, not only at an output. A corrupted C6288
		// multiplier costs seconds of exhausted per-candidate budgets, so
		// its flipped output above stands in for it.
		if name == "C6288" {
			continue
		}
		for k := 0; k < 2; k++ {
			mut, desc := mutate(n, r)
			if mut == nil {
				break
			}
			label := name + " (" + desc + ")"
			res, err := equiv.Check(context.Background(), n, mut, equiv.Options{Engine: "sat"})
			if err != nil {
				t.Fatalf("%s: sat engine: %v", label, err)
			}
			if !res.Equivalent {
				checkCexDistinguishes(t, label, res.Detail, n, mut)
			}
			// Where exact/BDD could not decide the equivalent pair they
			// are not retried (a failed BDD build costs seconds); a SAT
			// refutation is checked by its counterexample above, and
			// simulation still catches a missed difference.
			if classical {
				if ref, ok := reference(t, n, mut); ok && ref != res.Equivalent {
					t.Errorf("%s: SAT=%v but exact/BDD=%v", label, res.Equivalent, ref)
				}
				continue
			}
			sim, err := equiv.Check(context.Background(), n, mut, equiv.Options{Engine: "sim"})
			if err != nil {
				t.Fatal(err)
			}
			if !sim.Equivalent && res.Equivalent {
				t.Errorf("%s: SAT proves a pair simulation refutes (%s)", label, sim.Detail)
			}
		}
	}
}
