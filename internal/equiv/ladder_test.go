package equiv_test

// The auto ladder on the pairs a designer verifies by default: each MCNC
// stand-in decoded from its BLIF against its effort-3 flow MIG, both
// flattened, as mighty and the benchmark's mcnc-verified workload check
// them.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/equiv"
	"repro/internal/mcnc"
	"repro/internal/netlist"
	"repro/logic"
)

// flowPairs memoizes flowPair across the tests and benchmarks of a run.
var flowPairs = map[string][2]*netlist.Network{}

// flowPair returns the named stand-in decoded from its BLIF and its
// effort-3 flow MIG, both flattened.
func flowPair(tb testing.TB, name string) (in, out *netlist.Network) {
	tb.Helper()
	if p, ok := flowPairs[name]; ok {
		return p[0], p[1]
	}
	n, err := mcnc.Generate(name)
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := logic.DecodeBLIF(logic.FromNetlist(n).EncodeBLIF())
	if err != nil {
		tb.Fatal(err)
	}
	s, err := logic.NewSession(logic.WithObjective("flow"), logic.WithEffort(3))
	if err != nil {
		tb.Fatal(err)
	}
	opt, _, err := s.Optimize(context.Background(), logic.ToMIG(dec.Remajorize()))
	if err != nil {
		tb.Fatalf("%s: flow: %v", name, err)
	}
	in, out = logic.Flat(dec), logic.Flat(opt)
	flowPairs[name] = [2]*netlist.Network{in, out}
	return in, out
}

// autoMethods is the engine that decides each stand-in's pair under the
// auto ladder: the truth table below 15 inputs, the budgeted BDD where the
// pair's diagrams stay within it, and the SAT miter for the rest.
var autoMethods = map[string]equiv.Method{
	"alu4":     equiv.MethodExact,
	"misex3":   equiv.MethodExact,
	"C1355":    equiv.MethodBDD,
	"b9":       equiv.MethodBDD,
	"count":    equiv.MethodBDD,
	"bigkey":   equiv.MethodBDD,
	"s38417":   equiv.MethodBDD,
	"my_adder": equiv.MethodSAT,
	"dalu":     equiv.MethodSAT,
	"cla":      equiv.MethodSAT,
	"C1908":    equiv.MethodSAT,
	"mm30a":    equiv.MethodSAT,
	"C6288":    equiv.MethodSAT,
	"clma":     equiv.MethodSAT,
}

// TestAutoLadderMCNC pins the engine that proves every stand-in's flow
// pair. A BDD budget that starves a pair the BDD decides moves it to sat.
func TestAutoLadderMCNC(t *testing.T) {
	names := mcnc.Names()
	if len(names) != len(autoMethods) {
		t.Fatalf("%d stand-ins, %d pinned methods", len(names), len(autoMethods))
	}
	for _, name := range names {
		a, b := flowPair(t, name)
		res, err := equiv.Check(context.Background(), a, b, equiv.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Equivalent {
			t.Errorf("%s: flow output refuted (%s): %s", name, res.Method, res.Detail)
		}
		if want := autoMethods[name]; res.Method != want {
			t.Errorf("%s: decided by %s, want %s", name, res.Method, want)
		}
	}
}

// TestAutoBDDAttemptAllocBounded bounds one auto check of my_adder's pair,
// which the BDD cannot decide within the default limit: the attempt stops
// at the budget its gate count buys (4.8 MB of tables and nodes) before
// the SAT miter proves the pair, where a full-limit attempt allocated
// ~20 MB.
func TestAutoBDDAttemptAllocBounded(t *testing.T) {
	a, b := flowPair(t, "my_adder")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := equiv.Check(context.Background(), a, b, equiv.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || res.Method != equiv.MethodSAT {
		t.Fatalf("got %+v, want a SAT proof", res)
	}
	const bound = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("auto check of my_adder allocated %.1f MB, want at most %.0f", float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}

// BenchmarkAutoCheckMCNC times the auto check of the pairs whose BDD
// attempt fails (the seven the SAT miter proves) and of s38417, the
// largest pair the BDD proves.
func BenchmarkAutoCheckMCNC(b *testing.B) {
	names := []string{"my_adder", "dalu", "cla", "C1908", "mm30a", "C6288", "clma", "s38417"}
	for _, name := range names {
		x, y := flowPair(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := equiv.Check(context.Background(), x, y, equiv.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
