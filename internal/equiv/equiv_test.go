package equiv

import (
	"context"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sat"
)

// adder builds an n-bit ripple adder netlist.
func adder(bits int, name string) *netlist.Network {
	n := netlist.New(name)
	var xs, ys []netlist.Signal
	for i := 0; i < bits; i++ {
		xs = append(xs, n.AddInput("x"))
	}
	for i := 0; i < bits; i++ {
		ys = append(ys, n.AddInput("y"))
	}
	c := netlist.SigConst0
	for i := 0; i < bits; i++ {
		s := n.AddGate(netlist.Xor, xs[i], ys[i], c)
		n.AddOutput("s", s)
		c = n.AddGate(netlist.Maj, xs[i], ys[i], c)
	}
	n.AddOutput("cout", c)
	return n
}

// adderCLAish builds the same function with a different structure (carries
// computed by expanded equations).
func adderExpanded(bits int) *netlist.Network {
	n := netlist.New("exp")
	var xs, ys []netlist.Signal
	for i := 0; i < bits; i++ {
		xs = append(xs, n.AddInput("x"))
	}
	for i := 0; i < bits; i++ {
		ys = append(ys, n.AddInput("y"))
	}
	carries := []netlist.Signal{netlist.SigConst0}
	for i := 0; i < bits; i++ {
		g := n.AddGate(netlist.And, xs[i], ys[i])
		p := n.AddGate(netlist.Or, xs[i], ys[i])
		c := n.AddGate(netlist.Or, g, n.AddGate(netlist.And, p, carries[i]))
		carries = append(carries, c)
	}
	for i := 0; i < bits; i++ {
		n.AddOutput("s", n.AddGate(netlist.Xor, xs[i], ys[i], carries[i]))
	}
	n.AddOutput("cout", carries[bits])
	return n
}

func TestExactEquivalent(t *testing.T) {
	a := adder(4, "a")
	b := adderExpanded(4)
	res, err := Check(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Errorf("4-bit adders not equivalent: %s", res.Detail)
	}
	if res.Method != MethodExact {
		t.Errorf("method = %s, want exact", res.Method)
	}
}

func TestExactDifferent(t *testing.T) {
	a := adder(3, "a")
	b := adder(3, "b")
	// Flip one output.
	b.Outputs[0].Sig = b.Outputs[0].Sig.Not()
	res, err := Check(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Error("flipped output not detected")
	}
}

func TestBDDEngineEquivalent(t *testing.T) {
	// 12-bit adders: 24 inputs forces the BDD engine (exact capped at 14).
	a := adder(12, "a")
	b := adderExpanded(12)
	res, err := Check(context.Background(), a, b, Options{MaxExactInputs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Errorf("12-bit adders not equivalent: %s (%s)", res.Detail, res.Method)
	}
	if res.Method != MethodBDD {
		t.Errorf("method = %s, want bdd", res.Method)
	}
}

func TestBDDEngineDifferent(t *testing.T) {
	a := adder(12, "a")
	b := adderExpanded(12)
	b.Outputs[7].Sig = b.Outputs[7].Sig.Not()
	b.Outputs[3].Sig = b.Outputs[3].Sig.Not()
	res, err := Check(context.Background(), a, b, Options{MaxExactInputs: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Like the exact and SAT engines, BDD names the first differing output.
	if res.Equivalent || res.Method != MethodBDD || res.Detail != "output 3 (s) differs" {
		t.Errorf("got %+v, want a BDD difference naming output 3 (s)", res)
	}
}

// TestSATDefaultForLarge: with the BDD engine out of budget, the auto
// layering must decide exactly through the SAT engine — where it used to
// fall back to probabilistic simulation.
func TestSATDefaultForLarge(t *testing.T) {
	a := adder(16, "a")
	b := adderExpanded(16)
	res, err := Check(context.Background(), a, b, Options{MaxExactInputs: 8, BDDLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Errorf("SAT says different: %s", res.Detail)
	}
	if res.Method != MethodSAT {
		t.Errorf("method = %s, want sat", res.Method)
	}
}

// TestAutoBDDBudget checks the auto engine's node budget per BDD build:
// the floor for small pairs, bddNodesPerGate per gate above it, and the
// limit, the 200k default or a caller's smaller one, over both.
func TestAutoBDDBudget(t *testing.T) {
	for _, c := range []struct{ gates, limit, want int }{
		{0, 200_000, 1 << 16},
		{84, 200_000, 1 << 16},     // the 12-bit adder pair
		{8192, 200_000, 1 << 16},   // the per-gate term reaches the floor
		{8193, 200_000, 65_544},    // and passes it
		{18_843, 200_000, 150_744}, // clma's pair
		{25_000, 200_000, 200_000}, // the default limit caps it
		{31_239, 200_000, 200_000}, // s38417's pair
		{84, 8, 8},                 // a caller's limit below the floor wins
		{20_000, 100_000, 100_000}, // and one below the per-gate term
		{20_000, 1 << 20, 160_000}, // a larger limit leaves the per-gate term
	} {
		if got := autoBDDBudget(c.gates, c.limit); got != c.want {
			t.Errorf("autoBDDBudget(%d, %d) = %d, want %d", c.gates, c.limit, got, c.want)
		}
	}
}

// TestAutoBDDBudgetSparesForcedEngine: the 13-bit adder pair's first
// build needs ~123k nodes in declaration order, past the auto budget of
// its 91 gates (the floor) and under the default limit. Auto moves on to
// SAT; the forced BDD engine gets the whole limit and decides.
func TestAutoBDDBudgetSparesForcedEngine(t *testing.T) {
	a := adder(13, "a")
	b := adderExpanded(13)
	for _, c := range []struct {
		engine string
		want   Method
	}{{"auto", MethodSAT}, {"bdd", MethodBDD}} {
		res, err := Check(context.Background(), a, b, Options{MaxExactInputs: 8, Engine: c.engine})
		if err != nil {
			t.Fatalf("engine %s: %v", c.engine, err)
		}
		if !res.Equivalent || res.Method != c.want {
			t.Errorf("engine %s: got %+v, want an equivalence by %s", c.engine, res, c.want)
		}
	}
}

// verifyCex extracts the bit string from a Detail, evaluates both networks
// on it and confirms it genuinely distinguishes them.
func verifyCex(t *testing.T, detail string, a, b *netlist.Network) {
	t.Helper()
	idx := strings.Index(detail, "inputs=")
	if idx < 0 {
		t.Fatalf("Detail %q carries no counterexample", detail)
	}
	bits := detail[idx+len("inputs="):]
	if len(bits) != a.NumInputs() {
		t.Fatalf("counterexample has %d bits, want %d (%q)", len(bits), a.NumInputs(), detail)
	}
	words := make([]uint64, len(bits))
	for i, c := range bits {
		if c == '1' {
			words[i] = 1
		}
	}
	wa := a.OutputWords(words)
	wb := b.OutputWords(words)
	for i := range wa {
		if (wa[i]^wb[i])&1 != 0 {
			return
		}
	}
	t.Fatalf("counterexample %q does not distinguish the networks", bits)
}

func TestSATCounterexample(t *testing.T) {
	a := adder(16, "a")
	b := adderExpanded(16)
	b.Outputs[7].Sig = b.Outputs[7].Sig.Not()
	res, err := Check(context.Background(), a, b, Options{MaxExactInputs: 8, BDDLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("SAT missed flipped output")
	}
	if res.Method != MethodSAT {
		t.Fatalf("method = %s, want sat", res.Method)
	}
	verifyCex(t, res.Detail, a, b)
}

// The forced simulation engine must still work, and its mismatch Detail
// must carry the failing input assignment in the SAT format.
func TestForcedSimulationCounterexample(t *testing.T) {
	a := adder(16, "a")
	b := adderExpanded(16)
	res, err := Check(context.Background(), a, b, Options{Engine: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || res.Method != MethodSim {
		t.Fatalf("forced sim on equivalent pair: %+v", res)
	}
	b.Outputs[7].Sig = b.Outputs[7].Sig.Not()
	res, err = Check(context.Background(), a, b, Options{Engine: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("simulation missed flipped output")
	}
	verifyCex(t, res.Detail, a, b)
}

// Forcing each engine by name must work on a pair both can decide, and an
// unknown engine must error.
func TestEngineForcing(t *testing.T) {
	a := adder(4, "a")
	b := adderExpanded(4)
	for _, eng := range []string{"exact", "bdd", "sim", "sat"} {
		res, err := Check(context.Background(), a, b, Options{Engine: eng})
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if !res.Equivalent {
			t.Errorf("engine %s: not equivalent (%s)", eng, res.Detail)
		}
		if string(res.Method) != eng && !(eng == "sim" && res.Method == MethodSim) {
			t.Errorf("engine %s decided via %s", eng, res.Method)
		}
	}
	if _, err := Check(context.Background(), a, b, Options{Engine: "quantum"}); err == nil {
		t.Error("unknown engine accepted")
	}
	// Forced engines must refuse instances they cannot decide.
	big := adder(17, "big") // 34 inputs > tt.MaxVars
	if _, err := Check(context.Background(), big, adder(17, "b2"), Options{Engine: "exact"}); err == nil {
		t.Error("exact engine accepted 34 inputs")
	}
	if _, err := Check(context.Background(), big, adder(17, "b2"), Options{Engine: "bdd", BDDLimit: 4}); err == nil {
		t.Error("bdd engine accepted an instance over its node limit")
	}
}

func TestInterfaceMismatch(t *testing.T) {
	a := adder(4, "a")
	b := adder(5, "b")
	if _, err := Check(context.Background(), a, b, Options{}); err == nil {
		t.Error("input count mismatch accepted")
	}
	c := adder(4, "c")
	c.Outputs = c.Outputs[:3]
	if _, err := Check(context.Background(), a, c, Options{}); err == nil {
		t.Error("output count mismatch accepted")
	}
}

// TestSATReplayGuard: a Sat miter outcome whose assignment distinguishes
// no output is an internal error, never a verdict; a genuine one passes
// through with its counterexample.
func TestSATReplayGuard(t *testing.T) {
	a := adder(4, "a")
	b := adderExpanded(4)
	zeros := sat.MiterResult{Status: sat.Sat, Inputs: make([]bool, a.NumInputs())}
	if res, err := satResult(a, b, zeros); err == nil {
		t.Fatalf("non-distinguishing counterexample accepted: %+v", res)
	}
	b.Outputs[0].Sig = b.Outputs[0].Sig.Not()
	res, err := satResult(a, b, zeros)
	if err != nil || res.Equivalent {
		t.Fatalf("genuine counterexample: %+v err=%v", res, err)
	}
	verifyCex(t, res.Detail, a, b)
}
