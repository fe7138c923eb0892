package logic_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/logic"
)

// optimize runs a Session built from opts on n.
func optimize(t *testing.T, n logic.Network, opts ...logic.Option) (logic.Network, *logic.Result, error) {
	t.Helper()
	s, err := logic.NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s.Optimize(context.Background(), n)
}

func passNames(tr logic.Trace) []string {
	names := make([]string, len(tr))
	for i, st := range tr {
		names[i] = st.Pass
	}
	return names
}

// TestSessionAIGNoneFraig: on AIG inputs too, WithFraig appends to the
// "none" flow.
func TestSessionAIGNoneFraig(t *testing.T) {
	_, res, err := optimize(t, logic.ToAIG(circuit(t, "b9")), logic.WithObjective("none"), logic.WithFraig(true))
	if err != nil {
		t.Fatal(err)
	}
	if got := passNames(res.Trace); !slices.Equal(got, []string{"fraig"}) {
		t.Fatalf("trace %v, want [fraig]", got)
	}
}

// TestSessionActivityProfileErrors: a profile must have one probability
// per input; a short one is an error, not a panic.
func TestSessionActivityProfileErrors(t *testing.T) {
	b9 := circuit(t, "b9") // 41 inputs
	short := logic.WithActivityProbs([]float64{0.1, 0.9, 0.3})
	if _, _, err := optimize(t, b9, logic.WithObjective("activity"), short); err == nil || !strings.Contains(err.Error(), "activity profile") {
		t.Errorf("short profile: err = %v", err)
	}
}

// TestActivityShortProfile: Network.Activity gives every input past the
// end of the profile probability 0.5, in all three representations.
func TestActivityShortProfile(t *testing.T) {
	n := circuit(t, "b9")
	short := []float64{0.1, 0.9, 0.3}
	padded := make([]float64, n.NumInputs())
	for i := range padded {
		padded[i] = 0.5
	}
	copy(padded, short)
	for _, net := range []logic.Network{n, logic.ToMIG(n), logic.ToAIG(n)} {
		if got, want := net.Activity(short), net.Activity(padded); got != want {
			t.Errorf("%s: Activity(short) = %v, want %v", net.Kind(), got, want)
		}
	}
}
