package script_test

import (
	"context"
	"strings"
	"testing"

	"repro/logic"
	"repro/logic/bench"
	"repro/logic/script"
)

// TestShippedStrategiesValidate proves every shipped strategy is complete,
// canonical, and parses against the live pass registry of its kind — the
// guard against pass renames or arity drift breaking a named flow.
func TestShippedStrategiesValidate(t *testing.T) {
	all := script.All()
	if len(all) < 7 {
		t.Fatalf("library has %d strategies, want at least the 7 shipped ones", len(all))
	}
	for _, s := range all {
		if s.Name == "" || s.Description == "" || s.Objective == "" {
			t.Errorf("strategy %+v has empty metadata", s)
		}
		if s.Kind != script.KindMIG && s.Kind != script.KindAIG {
			t.Errorf("strategy %q has unknown kind %q", s.Name, s.Kind)
		}
		if s.Effort < 1 || s.Effort > 3 {
			t.Errorf("strategy %q has effort %d, want 1..3", s.Name, s.Effort)
		}
		if s.Source != script.SourceCurated && s.Source != script.SourceTuned {
			t.Errorf("strategy %q has unknown source %q", s.Name, s.Source)
		}
		canon, err := script.Canonical(s.Kind, s.Script)
		if err != nil {
			t.Errorf("strategy %q does not parse: %v", s.Name, err)
			continue
		}
		if canon != s.Script {
			t.Errorf("strategy %q script is not canonical:\n  stored %q\n  canon  %q", s.Name, s.Script, canon)
		}
	}
	for _, name := range []string{"migscript", "migscript-depth", "migscript2", "aigscript", "compress2rs", "tuned-depth", "tuned-size"} {
		if _, ok := script.Lookup(name); !ok {
			t.Errorf("shipped strategy %q missing from the library", name)
		}
	}
}

// TestLibraryListing checks the listing invariants: sorted names, Lookup
// round trip, ForKind partition, deterministic Format.
func TestLibraryListing(t *testing.T) {
	names := script.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	for _, n := range names {
		s, ok := script.Lookup(n)
		if !ok || s.Name != n {
			t.Errorf("Lookup(%q) = %+v, %v", n, s, ok)
		}
	}
	if got := len(script.ForKind(script.KindMIG)) + len(script.ForKind(script.KindAIG)); got != len(names) {
		t.Errorf("ForKind partition covers %d strategies, library has %d", got, len(names))
	}
	if a, b := script.Format(), script.Format(); a != b || a == "" {
		t.Error("Format is empty or nondeterministic")
	}
}

// TestCanonicalRejects proves Canonical, which validates every library
// entry at init, rejects an unknown kind, an unknown pass and a pass of
// the other registry.
func TestCanonicalRejects(t *testing.T) {
	cases := []struct{ kind, script string }{
		{"netlist", "cleanup"},
		{script.KindMIG, "cleanup; nope"},
		{script.KindAIG, "eliminate"},
	}
	for _, c := range cases {
		if canon, err := script.Canonical(c.kind, c.script); err == nil {
			t.Errorf("Canonical(%q, %q) = %q, want an error", c.kind, c.script, canon)
		}
	}
}

// TestStrategiesEquivalentOnMCNC runs every shipped strategy on a small
// MCNC sample in its native representation and verifies functional
// equivalence of the result — the soundness check for the whole library.
func TestStrategiesEquivalentOnMCNC(t *testing.T) {
	sample := []string{"my_adder", "alu4"}
	for _, s := range script.All() {
		for _, name := range sample {
			net, err := bench.Circuit(name)
			if err != nil {
				t.Fatal(err)
			}
			var in logic.Network = net
			if s.Kind == script.KindAIG {
				in = logic.ToAIG(net)
			}
			sess, err := logic.NewSession(logic.WithStrategy(s.Name), logic.WithVerify("auto"))
			if err != nil {
				t.Fatal(err)
			}
			if _, res, err := sess.Optimize(context.Background(), in); err != nil {
				t.Errorf("strategy %q on %s: %v", s.Name, name, err)
			} else if res.VerifyMethod == "" {
				t.Errorf("strategy %q on %s: verification did not run", s.Name, name)
			}
		}
	}
}

// TestWithStrategyMatchesWithScript proves WithStrategy(name) is
// byte-identical to WithScript with the strategy's script text, for every
// shipped strategy on an MCNC circuit.
func TestWithStrategyMatchesWithScript(t *testing.T) {
	for _, s := range script.All() {
		net, err := bench.Circuit("b9")
		if err != nil {
			t.Fatal(err)
		}
		var in logic.Network = net
		if s.Kind == script.KindAIG {
			in = logic.ToAIG(net)
		}
		run := func(o logic.Option) string {
			sess, err := logic.NewSession(o)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := sess.Optimize(context.Background(), in.Clone())
			if err != nil {
				t.Fatalf("strategy %q: %v", s.Name, err)
			}
			return out.EncodeBLIF()
		}
		byName := run(logic.WithStrategy(s.Name))
		byText := run(logic.WithScript(s.Script))
		if byName != byText {
			t.Errorf("strategy %q: WithStrategy and WithScript outputs differ", s.Name)
		}
	}
}

// TestWithStrategyErrors pins the unknown-name and kind-mismatch errors.
func TestWithStrategyErrors(t *testing.T) {
	if _, err := logic.NewSession(logic.WithStrategy("no-such-strategy")); err == nil ||
		!strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("unknown strategy error = %v", err)
	}

	// An AIG strategy must reject MIG/netlist inputs (and vice versa).
	net, err := bench.Circuit("my_adder")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := logic.NewSession(logic.WithStrategy("aigscript"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Optimize(context.Background(), net); err == nil ||
		!strings.Contains(err.Error(), "targets aig networks") {
		t.Errorf("kind mismatch error = %v", err)
	}
	sess, err = logic.NewSession(logic.WithStrategy("migscript"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Optimize(context.Background(), logic.ToAIG(net)); err == nil ||
		!strings.Contains(err.Error(), "targets mig networks") {
		t.Errorf("kind mismatch error = %v", err)
	}

	// A later WithScript clears the strategy resolution (and its kind check).
	sess, err = logic.NewSession(logic.WithStrategy("aigscript"), logic.WithScript("cleanup"))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Strategy() != "" {
		t.Errorf("Strategy() = %q after WithScript, want \"\"", sess.Strategy())
	}
	if _, _, err := sess.Optimize(context.Background(), net); err != nil {
		t.Errorf("WithScript after WithStrategy: %v", err)
	}
}
