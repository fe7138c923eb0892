package flow

import (
	"strings"
	"testing"
)

// TestSpecPipelines pins how each request resolves: the canned flow's
// pass names, the defaults, the order of the appends, and a script
// replacing the canned flow together with its appends.
func TestSpecPipelines(t *testing.T) {
	mig := func(s Spec) string {
		p, err := s.MIG()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		return p.String()
	}
	aig := func(s Spec) string {
		p, err := s.AIG()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		return p.String()
	}
	cases := []struct{ got, want string }{
		{mig(Spec{}), "cleanup; alg2-depth; eliminate-budget; activity-recover; pushup"},
		{mig(Spec{Objective: "size"}), "cleanup; alg1-size"},
		{mig(Spec{Objective: "depth"}), "cleanup; alg2-depth"},
		{mig(Spec{Objective: "activity"}), "cleanup; alg1-size; activity"},
		{mig(Spec{Objective: "none"}), ""},
		{mig(Spec{Objective: "none", Fraig: true}), "fraig"},
		{mig(Spec{NPN: true, Fraig: true}), "cleanup; alg2-depth; eliminate-budget; activity-recover; pushup; rewrite-npn; fraig"},
		{mig(Spec{Script: "eliminate(8); pushup", NPN: true, Fraig: true}), "eliminate(8); pushup"},
		{aig(Spec{}), "cleanup; resyn2; balance"},
		{aig(Spec{Objective: "depth", Fraig: true, NPN: true}), "cleanup; resyn2; balance; fraig"},
		{aig(Spec{Objective: "none"}), ""},
		{aig(Spec{Objective: "none", Fraig: true}), "fraig"},
		{aig(Spec{Script: "balance; rewrite", Fraig: true}), "balance; rewrite"},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: pipeline %q, want %q", i, c.got, c.want)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	for _, s := range []Spec{{Objective: "sise"}, {Script: "reshap"}} {
		if _, err := s.MIG(); err == nil {
			t.Errorf("%+v: MIG() resolved", s)
		}
		if _, err := s.AIG(); err == nil {
			t.Errorf("%+v: AIG() resolved", s)
		}
	}
	if err := CheckObjective(""); err == nil || !strings.Contains(err.Error(), "unknown objective") {
		t.Errorf("CheckObjective(\"\") = %v", err)
	}
}
