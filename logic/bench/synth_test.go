package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/equiv"
	"repro/internal/mapping"
	"repro/internal/netlist"
	"repro/logic"
)

// getBench returns a benchmark's flat internal netlist (for the
// netlist-level flow functions); getNet returns the SDK view.
func getBench(t *testing.T, name string) *netlist.Network {
	t.Helper()
	return logic.Flat(getNet(t, name))
}

func getNet(t *testing.T, name string) logic.Network {
	t.Helper()
	n, err := Circuit(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMIGOptimizePreservesFunction(t *testing.T) {
	for _, name := range []string{"my_adder", "b9", "alu4"} {
		n := getBench(t, name)
		m, metrics := MIGOptimize(n, Config{Effort: 2})
		if !metrics.OK || metrics.Size <= 0 || metrics.Depth <= 0 {
			t.Errorf("%s: bad metrics %+v", name, metrics)
		}
		res, err := equiv.Check(context.Background(), n, m.ToNetwork(), equiv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Errorf("%s: MIG optimization broke function (%s)", name, res.Detail)
		}
	}
}

func TestAIGOptimizePreservesFunction(t *testing.T) {
	for _, name := range []string{"my_adder", "b9", "count"} {
		n := getBench(t, name)
		a, metrics := AIGOptimize(n, Config{AIGRounds: 1})
		if !metrics.OK {
			t.Errorf("%s: AIG metrics not OK", name)
		}
		res, err := equiv.Check(context.Background(), n, a.ToNetwork(), equiv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Errorf("%s: AIG optimization broke function", name)
		}
	}
}

func TestBDSOptimizePreservesFunction(t *testing.T) {
	for _, name := range []string{"b9", "count", "misex3"} {
		n := getBench(t, name)
		d, metrics := BDSOptimize(n, bdsLimit)
		if !metrics.OK {
			t.Fatalf("%s: BDS failed", name)
		}
		res, err := equiv.Check(context.Background(), n, d, equiv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Errorf("%s: BDS decomposition broke function", name)
		}
	}
}

// TestBDSOutputPinned pins the BLIF bytes BDS writes for the 14 MCNC
// stand-ins and for degenerate networks. Among them are misex3 (rebuild-based
// sifting), bigkey (the declaration-order build wins), count (the DFS-order
// build wins), C1908, C6288, clma and mm30a (both global builds overflow
// the cap) and s38417 (the largest windowed result). The degenerate
// networks have no windowed gate (outputs wired to inputs, complemented
// inputs and constants, where a global build holds only its leaves and
// projections) or a single AND, XOR, MUX or MAJ gate, on which the
// candidates tie.
func TestBDSOutputPinned(t *testing.T) {
	pins := []struct{ name, sha256 string }{
		{"C1355", "0986a6c18c7e8585bbaa4b45887cad0531bf9a00e7a484c5bd5c369e8172a967"},
		{"my_adder", "c15ff6177fad7cf3611249a531be5ed67164262dcb4338f80520d44943e0ca89"},
		{"cla", "a8d2a9112fdbc29d4fd7d5e4a49a53a85159a63c9fd6b6c5d3863b971a998130"},
		{"dalu", "faed3b52a98a35922b0a6acd32484b24ab5e5948b29fdd874d918b937964ec0d"},
		{"b9", "21109de2674a654e5e6559a23e54f08b936ce8dde9c8e22472df23326c11ca7f"},
		{"count", "14322ca4247a63dee8ae44f19c894bfccc972891b9ce46697497b006af5a2616"},
		{"alu4", "579ec85685da1fbeb493b974539f45b97161963895af72be50070caf50bca2ef"},
		{"misex3", "163cae9f0f6cb0575f70b0838487c6339463bd8da2d71dc072099e822af6de41"},
		{"C1908", "3d915d307546cef720f35d270bdfafad9cc57ce9be297ae3c3a61570f0a96893"},
		{"bigkey", "364a160c86961d8634745d01b88c6d850510317c283dd452f3f089d8ad68de3d"},
		{"C6288", "0e968b94ae2628d2e16e5ded8fbebf5c04e4d5a577f59ce2bbf29bdf4ffd5498"},
		{"clma", "e8de46afba7de7fda97b1433f2079ba0d5892eeccd1f51afd1a4749898765667"},
		{"mm30a", "5a1dee779d4425b199279bdf088084a95ef709b4795aa4f16163c9ea7e210261"},
		{"s38417", "059b0a343676cde17924d63eebceddcf7e626b07ffac079d7e205ff4727d746d"},
		{"wires", "35b94d7441f34fd27911bd0faecff86f660d8f84f145bc7d68a3902dfb5e737b"},
		{"inverters", "6baef63719689f570227b59b74731ff401a01cfc595bd2d7695bcc20befa55d9"},
		{"constants", "7bb19461e3660691ee046dec1fcca5f16e47a7897cea0f891ad35bd52c3d2192"},
		{"and", "d3447cc8fc608506379016f9af2e999910e33cb451b2019256f535b355db0174"},
		{"xor", "962194e4a56fa9a78b0dfa8126f38c3119b95020faa6d83e320d1ed44ba649da"},
		{"mux", "2e5e9f7f77d325aad3a9bc2ee1bdc88ba12477f54b3b14b3f2b23ef56281a16f"},
		{"mux-wide", "722b9fd909ae33a96a99e23835d8395e33f92efc00d9744d78eaf470dce9bfa0"},
		{"maj", "6322560b14f957e650b231d2694bdc42f6aa366617996e0002a9308449c81a4b"},
	}
	for _, pin := range pins {
		n := degenerateNet(pin.name)
		if n == nil {
			n = getBench(t, pin.name)
		}
		d, metrics := BDSOptimize(n, bdsLimit)
		if !metrics.OK {
			t.Errorf("%s: BDS failed", pin.name)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(logic.FromNetlist(d).EncodeBLIF()))); got != pin.sha256 {
			t.Errorf("%s: BDS BLIF sha256 %s, want %s", pin.name, got, pin.sha256)
		}
	}
}

// degenerateNet returns the named network of TestBDSOutputPinned, or nil
// for any other name. The single gates read their inputs out of
// declaration order, so the DFS and declaration orders differ and tie;
// "mux-wide" is "mux" with nine unused inputs more, whose projection nodes
// the budget's floor covers.
func degenerateNet(name string) *netlist.Network {
	n := netlist.New(name)
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	switch name {
	case "wires":
		n.AddOutput("x", a)
		n.AddOutput("y", c)
		n.AddOutput("z", a)
	case "inverters":
		n.AddOutput("x", a.Not())
		n.AddOutput("y", b.Not())
		n.AddOutput("z", b)
	case "constants":
		n.AddOutput("x", netlist.SigConst0)
		n.AddOutput("y", netlist.SigConst1)
	case "and":
		n.AddOutput("x", n.AddGate(netlist.And, c, a.Not()))
	case "xor":
		n.AddOutput("x", n.AddGate(netlist.Xor, c, b))
	case "mux", "mux-wide":
		n.AddOutput("x", n.AddGate(netlist.Mux, c, a, b))
		if name == "mux-wide" {
			for i := 0; i < 9; i++ {
				n.AddInput(fmt.Sprintf("u%d", i))
			}
		}
	case "maj":
		n.AddOutput("x", n.AddGate(netlist.Maj, b, c.Not(), a))
	default:
		return nil
	}
	return n
}

// TestBDSAllocBounded bounds the bytes one BDSOptimize allocates on dalu
// and my_adder, whose declaration-order global BDDs overflow the cap: a
// global build that runs past the windowed candidate's budget allocates
// tens of megabytes before it fails.
func TestBDSAllocBounded(t *testing.T) {
	const maxBytes = 8 << 20
	for _, name := range []string{"dalu", "my_adder"} {
		n := getBench(t, name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, metrics := BDSOptimize(n, bdsLimit)
		runtime.ReadMemStats(&after)
		if !metrics.OK {
			t.Fatalf("%s: BDS failed", name)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.2f MB allocated", name, float64(got)/(1<<20))
		if got > maxBytes {
			t.Errorf("%s: BDSOptimize allocated %.1f MB, want at most %d MB", name, float64(got)/(1<<20), maxBytes>>20)
		}
	}
}

// BenchmarkBDSOptimize runs the BDS baseline over the seven circuits of
// the benchmark's table1 workload, once each per iteration.
func BenchmarkBDSOptimize(b *testing.B) {
	var nets []*netlist.Network
	for _, name := range []string{"C1355", "my_adder", "cla", "dalu", "b9", "count", "alu4"} {
		n, err := Circuit(name)
		if err != nil {
			b.Fatal(err)
		}
		nets = append(nets, logic.Flat(n))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			if _, m := BDSOptimize(n, bdsLimit); !m.OK {
				b.Fatalf("%s: BDS failed", n.Name)
			}
		}
	}
}

func TestWindowedBDSOnMultiplier(t *testing.T) {
	// C6288's global BDD must overflow a small budget; the windowed
	// fallback must still produce an equivalent network.
	n := getBench(t, "C6288")
	d, metrics := BDSOptimize(n, 1<<14)
	if !metrics.OK {
		t.Fatal("windowed BDS failed on multiplier")
	}
	res, err := equiv.Check(context.Background(), n, d, equiv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Error("windowed BDS broke the multiplier")
	}
}

func TestMIGDepthBeatsAIGOnAdder(t *testing.T) {
	// The paper's headline: on carry-chain arithmetic, MIG depth
	// optimization clearly beats AIG optimization (my_adder: 19 vs 33).
	n := getBench(t, "my_adder")
	_, mm := MIGOptimize(n, Config{Effort: 3})
	_, am := AIGOptimize(n, Config{AIGRounds: 2})
	if mm.Depth >= am.Depth {
		t.Errorf("my_adder: MIG depth %d not better than AIG depth %d", mm.Depth, am.Depth)
	}
	t.Logf("my_adder: MIG %d/%d vs AIG %d/%d (size/depth)", mm.Size, mm.Depth, am.Size, am.Depth)
}

func TestRunOptRowWithVerify(t *testing.T) {
	n := getNet(t, "b9")
	row := RunOptRow(n, Config{Effort: 2, AIGRounds: 1, VerifyEngine: "auto"})
	if row.VerifyErr != "" {
		t.Errorf("verification failed: %s", row.VerifyErr)
	}
	if !row.MIG.OK || !row.AIG.OK || !row.BDS.OK {
		t.Error("some engine failed on b9")
	}
}

func TestRunSynthRowMetrics(t *testing.T) {
	n := getNet(t, "alu4")
	row := RunSynthRow(n, Config{Effort: 2, AIGRounds: 1})
	for label, r := range map[string]SynthResult{"mig": row.MIG, "aig": row.AIG, "cst": row.CST} {
		if !r.OK || r.Area <= 0 || r.Delay <= 0 || r.Power <= 0 {
			t.Errorf("%s: bad synth result %+v", label, r)
		}
	}
}

func TestGeomean(t *testing.T) {
	g := Geomean([]float64{1, 4}, []float64{2, 2})
	if g != 1 { // sqrt(0.5 * 2) = 1
		t.Errorf("geomean = %v, want 1", g)
	}
	g = Geomean([]float64{1, -1}, []float64{2, 5})
	if g != 0.5 {
		t.Errorf("geomean with skip = %v, want 0.5", g)
	}
}

func TestSummaries(t *testing.T) {
	rows := []OptRow{
		{MIG: OptMetrics{Size: 100, Depth: 10, Activity: 50, OK: true},
			AIG: OptMetrics{Size: 100, Depth: 20, Activity: 50, OK: true},
			BDS: OptMetrics{Size: 200, Depth: 20, Activity: 100, OK: true}},
		{MIG: OptMetrics{Size: 100, Depth: 10, Activity: 50, OK: true},
			AIG: OptMetrics{Size: 100, Depth: 20, Activity: 50, OK: true},
			BDS: OptMetrics{OK: false}},
	}
	s := SummarizeOpt(rows)
	if s.DepthVsAIG != 0.5 {
		t.Errorf("DepthVsAIG = %v, want 0.5", s.DepthVsAIG)
	}
	if s.SizeVsBDS != 0.5 {
		t.Errorf("SizeVsBDS = %v, want 0.5 (one row skipped)", s.SizeVsBDS)
	}

	srows := []SynthRow{{
		MIG: SynthResult{Area: 50, Delay: 1, Power: 100, OK: true},
		AIG: SynthResult{Area: 100, Delay: 2, Power: 100, OK: true},
		CST: SynthResult{Area: 80, Delay: 4, Power: 200, OK: true},
	}}
	ss := SummarizeSynth(srows)
	if ss.AreaVsBest != 50.0/80.0 {
		t.Errorf("AreaVsBest = %v", ss.AreaVsBest)
	}
	if ss.DelayVsAIG != 0.5 {
		t.Errorf("DelayVsAIG = %v", ss.DelayVsAIG)
	}
}

func TestCSTFlowIndependent(t *testing.T) {
	// The CST flow must be a genuinely different script from the AIG flow
	// (different results on at least some circuit).
	n := getNet(t, "misex3")
	cfg := Config{Effort: 1, AIGRounds: 1, Lib: mapping.Default22nm()}
	cfg.Defaults()
	a, _ := AIGFlow(n, cfg.AIGRounds, cfg.Lib)
	c, _ := CSTFlow(n, cfg.Lib)
	if a.Area == c.Area && a.Delay == c.Delay && a.Power == c.Power {
		t.Error("CST flow produced identical metrics to AIG flow; scripts not distinct")
	}
}
