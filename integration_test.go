// Integration tests: cross-module pipelines exercised end to end — the
// flows a downstream user would actually run.
package repro_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/blif"
	"repro/internal/equiv"
	"repro/internal/mapping"
	"repro/internal/mcnc"
	"repro/internal/mig"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/logic"
	"repro/logic/bench"
)

// TestFullPipelineVerilog drives the mighty pipeline in-process: generate →
// write Verilog → parse → remajorize → MIG optimize → verify → write back →
// re-parse → verify again.
func TestFullPipelineVerilog(t *testing.T) {
	for _, name := range []string{"my_adder", "b9", "alu4"} {
		orig, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		src := verilog.Write(orig)
		parsed, err := verilog.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		m := mig.FromNetwork(parsed.Remajorize())
		opt := mustRun(t, mig.FlowPipeline(2), m)
		res, err := equiv.Check(context.Background(), orig, opt.ToNetwork(), equiv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("%s: pipeline broke function (%s)", name, res.Detail)
		}
		// Round 2: write the optimized MIG and read it back.
		src2 := verilog.Write(opt.ToNetwork())
		parsed2, err := verilog.Parse(src2)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", name, err)
		}
		res2, err := equiv.Check(context.Background(), orig, parsed2, equiv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Equivalent {
			t.Fatalf("%s: write-back changed function", name)
		}
	}
}

// TestFullPipelineBLIF does the same through BLIF.
func TestFullPipelineBLIF(t *testing.T) {
	orig, err := mcnc.Generate("count")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := blif.Parse(blif.Write(orig))
	if err != nil {
		t.Fatal(err)
	}
	m := mig.FromNetwork(parsed.Remajorize())
	opt := mustRun(t, mig.SizePipeline(2), m)
	res, err := equiv.Check(context.Background(), orig, opt.ToNetwork(), equiv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("BLIF pipeline broke function (%s)", res.Detail)
	}
}

// TestCrossRepresentationAgreement optimizes the same circuit as MIG, AIG
// and BDS and confirms all three remain mutually equivalent.
func TestCrossRepresentationAgreement(t *testing.T) {
	n, err := mcnc.Generate("alu4")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := bench.MIGOptimize(n, bench.Config{Effort: 2})
	a, _ := bench.AIGOptimize(n, bench.Config{AIGRounds: 1})
	d, dm := bench.BDSOptimize(n, 1<<18)
	if !dm.OK {
		t.Fatal("BDS failed on alu4")
	}
	nets := []*netlist.Network{m.ToNetwork(), a.ToNetwork(), d}
	for i := 0; i < len(nets); i++ {
		for j := i + 1; j < len(nets); j++ {
			res, err := equiv.Check(context.Background(), nets[i], nets[j], equiv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equivalent {
				t.Errorf("representations %d and %d disagree", i, j)
			}
		}
	}
}

// TestMutationDetection injects faults into an optimized design and checks
// that the equivalence checker catches every one of them — guarding against
// a checker that silently passes everything.
func TestMutationDetection(t *testing.T) {
	n, err := mcnc.Generate("b9")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := bench.MIGOptimize(n, bench.Config{Effort: 2})
	good := m.ToNetwork()
	r := rand.New(rand.NewSource(42))
	caught, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		mut := good.Clean()
		// Flip a random output polarity or a random gate fanin.
		if r.Intn(2) == 0 {
			oi := r.Intn(len(mut.Outputs))
			if mut.Outputs[oi].Sig.Node() == 0 {
				continue
			}
			mut.Outputs[oi].Sig = mut.Outputs[oi].Sig.Not()
		} else {
			gi := r.Intn(len(mut.Nodes))
			if len(mut.Nodes[gi].Fanins) == 0 {
				continue
			}
			fi := r.Intn(len(mut.Nodes[gi].Fanins))
			mut.Nodes[gi].Fanins[fi] = mut.Nodes[gi].Fanins[fi].Not()
		}
		total++
		res, err := equiv.Check(context.Background(), n, mut, equiv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			caught++
		}
	}
	// Some fanin flips can be functionally benign (dead or redundant logic),
	// but the overwhelming majority must be caught.
	if total == 0 || caught*10 < total*8 {
		t.Errorf("mutation detection too weak: %d/%d caught", caught, total)
	}
}

// TestFlowMetricsConsistency checks invariants that must hold between the
// optimization metrics and the mapped results.
func TestFlowMetricsConsistency(t *testing.T) {
	n, err := mcnc.Generate("C1908")
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.Config{Effort: 2, AIGRounds: 1}
	cfg.Defaults()
	sr := bench.RunSynthRow(logic.FromNetlist(n), cfg)
	// Sanity: all flows produced valid metrics.
	for label, m := range map[string]bench.SynthResult{"MIG": sr.MIG, "AIG": sr.AIG, "CST": sr.CST} {
		if !m.OK || m.Area <= 0 || m.Delay <= 0 || m.Power <= 0 {
			t.Errorf("%s flow produced bad metrics: %+v", label, m)
		}
	}
	// The paper's core synthesis claim on an XOR-rich circuit: MIG delay
	// must not lose to the AIG flow.
	if sr.MIG.Delay > sr.AIG.Delay*1.05 {
		t.Errorf("MIG flow delay %.3f worse than AIG %.3f on C1908", sr.MIG.Delay, sr.AIG.Delay)
	}
}

// TestSimulationActivityTracksStatic cross-checks the two activity
// estimators (static propagation vs dynamic simulation) on tree-dominated
// logic where both are near-exact.
func TestSimulationActivityTracksStatic(t *testing.T) {
	n, err := mcnc.Generate("bigkey")
	if err != nil {
		t.Fatal(err)
	}
	a := aig.FromNetwork(n)
	static := a.Activity(nil)
	r := rand.New(rand.NewSource(7))
	dynamic := sim.ActivityEstimate(a.ToNetwork(), r, 32)
	ratio := dynamic / static
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("activity estimators disagree: static %.1f dynamic %.1f", static, dynamic)
	}
}

// TestMapperLibrarySensitivity: removing MAJ cells must never make mapped
// results smaller, and must hurt majority-rich circuits.
func TestMapperLibrarySensitivity(t *testing.T) {
	n, err := mcnc.Generate("my_adder")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := bench.MIGOptimize(n, bench.Config{Effort: 2})
	net := m.ToNetwork()
	with := mapping.Map(net, mapping.Default22nm(), nil)
	without := mapping.Map(net, mapping.NoMajLibrary(), nil)
	if without.Area < with.Area {
		t.Errorf("removing MAJ cells reduced area: %.2f -> %.2f", with.Area, without.Area)
	}
	if without.CellCounts[mapping.CellMAJ3] != 0 || without.CellCounts[mapping.CellMIN3] != 0 {
		t.Error("NoMajLibrary still used majority cells")
	}
}

// TestMiggenFormats checks both emitters on every benchmark name (parse-back
// included for the small ones).
func TestMiggenFormats(t *testing.T) {
	for _, name := range mcnc.Names() {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		v := verilog.Write(n)
		bl := blif.Write(n)
		if !strings.Contains(v, "module") || !strings.Contains(bl, ".model") {
			t.Errorf("%s: emitters produced garbage", name)
		}
		if n.NumGates() < 3000 {
			if _, err := verilog.Parse(v); err != nil {
				t.Errorf("%s: verilog parse-back: %v", name, err)
			}
			if _, err := blif.Parse(bl); err != nil {
				t.Errorf("%s: blif parse-back: %v", name, err)
			}
		}
	}
}
