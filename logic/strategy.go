package logic

// Named-strategy resolution: the bridge between Session and the strategy
// library in logic/script. A strategy is a whole optimization flow (a pass
// script plus metadata) under a stable name; WithStrategy makes flows
// first-class, shareable objects instead of flag strings.

import (
	"fmt"
	"strings"

	"repro/logic/script"
)

// WithStrategy resolves a named strategy from the script library
// (logic/script) and configures the session with its pass script —
// byte-identical to WithScript with the strategy's Script text. The
// strategy's kind is enforced at Optimize time: a "mig" strategy accepts
// MIG and flat-netlist inputs, an "aig" strategy accepts AIG inputs.
func WithStrategy(name string) Option {
	return func(s *Session) error {
		st, ok := script.Lookup(name)
		if !ok {
			return fmt.Errorf("logic: unknown strategy %q (have %s)",
				name, strings.Join(script.Names(), ", "))
		}
		s.flow.Script = st.Script
		s.strategy = st.Name
		s.strategyKind = st.Kind
		return nil
	}
}

// Strategy returns the session's resolved strategy name ("" when the
// session was configured with a raw script or a canned objective).
func (s *Session) Strategy() string { return s.strategy }

// Strategies lists the registered named strategies, sorted by name —
// what mighty -list-scripts prints and the service's /v1/scripts endpoint
// serves.
func Strategies() []script.Strategy { return script.All() }

// StrategiesForKind lists the registered strategies targeting one
// representation kind. Flat netlists optimize through the MIG, so
// KindNetlist reports the MIG strategies.
func StrategiesForKind(kind Kind) []script.Strategy {
	k := script.KindMIG
	if kind == KindAIG {
		k = script.KindAIG
	}
	return script.ForKind(k)
}

// checkStrategyKind rejects a kind-mismatched strategy before the script
// is compiled against the wrong registry, so the error names the strategy
// instead of its first unknown pass.
func (s *Session) checkStrategyKind(input Kind) error {
	if s.strategyKind == "" {
		return nil
	}
	want := KindMIG
	if s.strategyKind == script.KindAIG {
		want = KindAIG
	}
	if want != input {
		return fmt.Errorf("logic: strategy %q targets %s networks, input is %s",
			s.strategy, s.strategyKind, input)
	}
	return nil
}
