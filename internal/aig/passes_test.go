package aig

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/blif"
	"repro/internal/equiv"
	"repro/internal/mcnc"
	"repro/internal/opt"
)

// runPipeline runs a canned pipeline on a.
func runPipeline(t testing.TB, p *opt.Pipeline[*AIG], a *AIG) *AIG {
	t.Helper()
	res, _, err := p.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The resyn2 pipeline and a scripted recipe keep per-pass equivalence on a
// real circuit.
func TestAIGPipelinesPreserveEquivalence(t *testing.T) {
	n, err := mcnc.Generate("b9")
	if err != nil {
		t.Fatal(err)
	}
	a := FromNetwork(n)

	p := Resyn2Pipeline(1)
	p.Check = opt.EquivChecker(equiv.Options{})
	_, trace, err := p.Run(context.Background(), a)
	if err != nil {
		t.Fatalf("%v\n%s", err, trace.Format())
	}
	for _, st := range trace {
		if st.Equiv != "ok" {
			t.Errorf("pass %s equiv = %q", st.Pass, st.Equiv)
		}
	}

	sp, err := ParseScript("balance; rewrite; refactor; balance; rewrite")
	if err != nil {
		t.Fatal(err)
	}
	sp.Check = opt.EquivChecker(equiv.Options{})
	res, trace, err := sp.Run(context.Background(), a)
	if err != nil {
		t.Fatalf("%v\n%s", err, trace.Format())
	}
	if len(trace) != 5 {
		t.Fatalf("trace has %d steps", len(trace))
	}
	// The scripted recipe is one resyn2 cycle body; it must not lose to the
	// plain reconstruction badly.
	if res.Size() > a.Size() {
		t.Errorf("scripted resyn2 body grew the AIG: %d -> %d", a.Size(), res.Size())
	}
}

func TestAIGScriptErrors(t *testing.T) {
	if _, err := ParseScript("balance(3)"); err == nil {
		t.Fatal("balance takes no args")
	}
	if _, err := ParseScript("rebalance"); err == nil {
		t.Fatal("unknown pass must error")
	}
}

// The AIG baseline's output bytes are pinned: the BLIF of resyn2 over two
// rounds plus a final balance (the Table I AIG flow) on the Table I
// circuits the repository benchmark runs, then on the other MCNC stand-ins
// whose flow takes well under a second (clma and s38417 take longer). A
// digest may change only with an intended change of what balance, rewrite
// or refactor build.
func TestResyn2OutputPinned(t *testing.T) {
	pins := []struct{ name, sha256 string }{
		{"C1355", "e5548a623b62bb53b8026217e40493cfc74a1f4ee4a50d08fdaca0e74317aa2a"},
		{"my_adder", "9f52e05e2e7af016f8664b8e83b5ca3df4abdedc44b1f38fdc14e58ba79ce1ac"},
		{"cla", "c20e11e20ccc12d862d86de1a6f27cba8908564f890cfbe47ec840cce183e59a"},
		{"dalu", "8e095e73f350e21c803f47af8e59562ee9387fd85b4843d4add29d475688f707"},
		{"b9", "3589cb464d3015e6e80d7a3ee3dfb74e951dac21a4d663c693df2f8e8ded7e5d"},
		{"count", "b8bf5c0397eb571b1b294888ed12683f66565da8f304cafee91d5eac9d509819"},
		{"alu4", "7d6fd26da05c2347f2d4d52fec2a38b64678e53d0e99a717ad9b5e18d45ebe03"},
		{"C1908", "69140dd1569d65aee948bd35b2fd69691ad499e49097e6756fd802ceb248c765"},
		{"C6288", "f4800cf1450aaea4d62dcd6c4491b9bb56f0e35e6941739a81da0c4ca24ec44d"},
		{"bigkey", "9ab457ba2b5968b43a885afde8d31f4ff18e8ac8fe9f18a487f0b4f4aeb6ea08"},
		{"misex3", "decab69acfa8b0d371b8b215bb80d3af035283659f2672e7759503129f829326"},
		{"mm30a", "064f1319610773b4824a3b9399244176197cfbdfac900dd439af6e65ad7134f3"},
	}
	for _, pin := range pins {
		n, err := mcnc.Generate(pin.name)
		if err != nil {
			t.Fatal(err)
		}
		res := runPipeline(t, Resyn2Pipeline(2).Append(passBalance()), FromNetwork(n))
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(blif.Write(res.ToNetwork())))); got != pin.sha256 {
			t.Errorf("%s: resyn2+balance BLIF sha256 %s, want %s", pin.name, got, pin.sha256)
		}
	}
}

// BenchmarkRewrite measures one rewrite pass (cut enumeration, cut
// functions, SOP factoring, commit) on a fresh AIG of an MCNC circuit.
func BenchmarkRewrite(b *testing.B) {
	n, err := mcnc.Generate("alu4")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := FromNetwork(n)
		b.StartTimer()
		if out := a.Rewrite(); out.Size() == 0 {
			b.Fatal("empty result")
		}
	}
}

func benchAIG(b *testing.B, name string) *AIG {
	b.Helper()
	n, err := mcnc.Generate(name)
	if err != nil {
		b.Fatal(err)
	}
	return FromNetwork(n)
}

// BenchmarkStrashLookup measures hit-path structural hashing: every And
// call re-resolves an existing node.
func BenchmarkStrashLookup(b *testing.B) {
	a := benchAIG(b, "C6288")
	var keys [][2]Signal
	for i := 0; i < a.NumNodes(); i++ {
		if a.IsAnd(MakeSignal(i, false)) {
			keys = append(keys, a.Fanins(i))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if s := a.And(k[0], k[1]); s.Node() == 0 {
			b.Fatal("lookup lost node")
		}
	}
}

// BenchmarkStrashBuild measures miss-path hashing: constructing a fresh AIG
// node by node.
func BenchmarkStrashBuild(b *testing.B) {
	src := benchAIG(b, "C6288")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := src.Cleanup(); c.Size() == 0 {
			b.Fatal("empty rebuild")
		}
	}
}
