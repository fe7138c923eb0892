package bench

import (
	"context"
	"testing"

	"repro/internal/mig"
	"repro/logic"
	"repro/logic/script"
)

// TestScriptEvaluator proves the MCNC-backed evaluator matches a direct
// pipeline run and surfaces circuit and script errors.
func TestScriptEvaluator(t *testing.T) {
	eval := ScriptEvaluator(1)
	ctx := context.Background()

	got, err := eval(ctx, "my_adder", "cleanup; eliminate")
	if err != nil {
		t.Fatal(err)
	}
	n, err := Circuit("my_adder")
	if err != nil {
		t.Fatal(err)
	}
	p, err := mig.ParseScript("cleanup; eliminate")
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := p.Run(context.Background(), mig.FromNetwork(logic.Flat(n)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != out.Size() || got.Depth != out.Depth() {
		t.Errorf("evaluator = %+v, direct run = %d/%d", got, out.Size(), out.Depth())
	}

	if _, err := eval(ctx, "no-such-circuit", "cleanup"); err == nil {
		t.Error("evaluator accepted an unknown circuit")
	}
	if _, err := eval(ctx, "my_adder", "nope"); err == nil {
		t.Error("evaluator accepted an unknown pass")
	}
}

// TestTuneOnMCNCSmoke runs a tiny deterministic tuning budget end to end
// through the real evaluator.
func TestTuneOnMCNCSmoke(t *testing.T) {
	res, err := script.Tune(context.Background(), script.TuneOptions{
		Circuits:   []string{"my_adder"},
		Eval:       ScriptEvaluator(1),
		Candidates: []string{"eliminate", "reshape-size"},
		MaxTrials:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 || res.Best.Script == "" {
		t.Errorf("tune result = %+v", res)
	}
	if res.BestSize > res.SeedSize {
		t.Errorf("tuning worsened the objective: best %v, seed %v", res.BestSize, res.SeedSize)
	}
}

// TestTunedStrategyBeatsFlow pins the acceptance claim behind the shipped
// tuned-depth strategy: on at least three MCNC circuits it strictly beats
// the default effort-3 flow on size or depth while never losing the other
// metric. Everything involved is deterministic, so this is a stable
// regression guard against pass-behavior drift silently invalidating the
// checked-in tuned scripts.
func TestTunedStrategyBeatsFlow(t *testing.T) {
	st, ok := script.Lookup("tuned-depth")
	if !ok {
		t.Fatal("tuned-depth strategy missing")
	}
	eval := ScriptEvaluator(1)
	wins := 0
	for _, name := range []string{"alu4", "b9", "dalu"} {
		n, err := Circuit(name)
		if err != nil {
			t.Fatal(err)
		}
		flow := MIGOptimizeNet(n, Config{Effort: 3})
		tuned, err := eval(context.Background(), name, st.Script)
		if err != nil {
			t.Fatal(err)
		}
		better := tuned.Size < flow.Size || tuned.Depth < flow.Depth
		worse := tuned.Size > flow.Size || tuned.Depth > flow.Depth
		t.Logf("%s: flow %d/%d, tuned %d/%d", name, flow.Size, flow.Depth, tuned.Size, tuned.Depth)
		if better && !worse {
			wins++
		}
	}
	if wins < 3 {
		t.Errorf("tuned-depth dominates the flow on %d of 3 circuits, want 3", wins)
	}
}
