package aig

import (
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
	res, _, err := p.Run(a)
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
	_, trace, err := p.Run(a)
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
	res, trace, err := sp.Run(a)
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
// circuits the repository benchmark runs. A digest may change only with an
// intended change of what balance, rewrite or refactor build.
func TestResyn2OutputPinned(t *testing.T) {
	pins := []struct{ name, sha256 string }{
		{"C1355", "e5548a623b62bb53b8026217e40493cfc74a1f4ee4a50d08fdaca0e74317aa2a"},
		{"my_adder", "9f52e05e2e7af016f8664b8e83b5ca3df4abdedc44b1f38fdc14e58ba79ce1ac"},
		{"cla", "c20e11e20ccc12d862d86de1a6f27cba8908564f890cfbe47ec840cce183e59a"},
		{"dalu", "8e095e73f350e21c803f47af8e59562ee9387fd85b4843d4add29d475688f707"},
		{"b9", "3589cb464d3015e6e80d7a3ee3dfb74e951dac21a4d663c693df2f8e8ded7e5d"},
		{"count", "b8bf5c0397eb571b1b294888ed12683f66565da8f304cafee91d5eac9d509819"},
		{"alu4", "7d6fd26da05c2347f2d4d52fec2a38b64678e53d0e99a717ad9b5e18d45ebe03"},
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
