package bench

import (
	"crypto/sha256"
	"fmt"
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
		res, err := equiv.Check(n, m.ToNetwork(), equiv.Options{SimRounds: 32})
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
		res, err := equiv.Check(n, a.ToNetwork(), equiv.Options{SimRounds: 32})
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
		d, metrics := BDSOptimize(n, 1<<18)
		if !metrics.OK {
			t.Fatalf("%s: BDS failed", name)
		}
		res, err := equiv.Check(n, d, equiv.Options{SimRounds: 32})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Errorf("%s: BDS decomposition broke function", name)
		}
	}
}

// TestBDSOutputPinned pins the BLIF bytes BDS writes for table1's seven
// circuits, misex3 (rebuild-based sifting) and C1908 (the declaration-order
// build trips the limit).
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
	}
	for _, pin := range pins {
		d, metrics := BDSOptimize(getBench(t, pin.name), 1<<18)
		if !metrics.OK {
			t.Errorf("%s: BDS failed", pin.name)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(logic.FromNetlist(d).EncodeBLIF()))); got != pin.sha256 {
			t.Errorf("%s: BDS BLIF sha256 %s, want %s", pin.name, got, pin.sha256)
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
	res, err := equiv.Check(n, d, equiv.Options{SimRounds: 64})
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
	row := RunOptRow(n, Config{Effort: 2, AIGRounds: 1, VerifyEngine: "auto", SimRounds: 16})
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
