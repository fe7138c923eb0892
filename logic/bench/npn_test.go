package bench

import (
	"context"
	"math"
	"testing"

	"repro/logic/script"
)

// TestNPNBeatsCutRewrite pins the acceptance claim behind the exact NPN
// database flow: migscript3 (rewrite-npn) beats migscript (cut-rewrite) —
// the two scripts are statement-for-statement identical apart from the
// rewriting pass — on the MCNC size geomean at an equal-or-better depth
// geomean. Everything involved is deterministic, so this is a stable
// regression guard for both the database contents and the pass's gain
// accounting.
func TestNPNBeatsCutRewrite(t *testing.T) {
	cut, ok := script.Lookup("migscript")
	if !ok {
		t.Fatal("migscript strategy missing")
	}
	npn, ok := script.Lookup("migscript3")
	if !ok {
		t.Fatal("migscript3 strategy missing")
	}
	eval := ScriptEvaluator(1)
	suite := []string{"b9", "count", "my_adder", "C1355", "alu4", "dalu", "misex3"}
	geomeans := func(s string) (size, depth float64) {
		var logSize, logDepth float64
		for _, name := range suite {
			m, err := eval(context.Background(), name, s)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s %q: size=%d depth=%d", name, s[:20], m.Size, m.Depth)
			logSize += math.Log(float64(m.Size))
			logDepth += math.Log(float64(m.Depth))
		}
		n := float64(len(suite))
		return math.Exp(logSize / n), math.Exp(logDepth / n)
	}
	cutSize, cutDepth := geomeans(cut.Script)
	npnSize, npnDepth := geomeans(npn.Script)
	t.Logf("cut-rewrite flow: size geomean %.2f, depth geomean %.2f", cutSize, cutDepth)
	t.Logf("rewrite-npn flow: size geomean %.2f, depth geomean %.2f", npnSize, npnDepth)
	const eps = 1e-9
	if npnSize >= cutSize-eps {
		t.Errorf("rewrite-npn size geomean %.3f does not beat cut-rewrite %.3f", npnSize, cutSize)
	}
	if npnDepth > cutDepth+eps {
		t.Errorf("rewrite-npn depth geomean %.3f worse than cut-rewrite %.3f", npnDepth, cutDepth)
	}
}
