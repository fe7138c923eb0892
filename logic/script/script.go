// Package script is the named-strategy library: whole optimization flows
// as first-class, versioned, shareable objects instead of CLI flag
// strings.
//
// A Strategy bundles a pass script (the same textual form mighty -script
// and logic.WithScript accept) with metadata — target representation,
// optimization objective, a description, and a recommended effort class —
// under a stable name. The library ships LSOracle-style curated strategies
// (migscript, migscript2, ...) plus strategies discovered by the tuner in
// this package (Tune), which searches the pass-registry space against the
// MCNC suite.
//
// Strategies resolve by name everywhere scripts are accepted:
//
//   - logic.WithStrategy("migscript2") on a Session,
//   - mighty -strategy migscript2 (and -list-scripts),
//   - migbench -strategy migscript2 (and -tune to discover new ones),
//   - script_name in the migd service's POST /v1/optimize, with the
//     library served from GET /v1/scripts.
//
// Every shipped strategy is parsed against the live pass registry at
// package init and stored in canonical statement form, so a pass rename or
// arity change fails the build's tests instead of a user's run.
package script

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/aig"
	"repro/internal/mig"
	"repro/internal/opt"
)

// Strategy kinds: the representation a strategy's passes target.
const (
	KindMIG = "mig"
	KindAIG = "aig"
)

// Sources: how a strategy entered the library.
const (
	SourceCurated = "curated" // hand-written, LSOracle/ABC-style
	SourceTuned   = "tuned"   // discovered by Tune on the MCNC suite
)

// Strategy is a named, versioned optimization flow.
type Strategy struct {
	// Name is the stable identifier strategies resolve by.
	Name string `json:"name"`
	// Kind is the representation the script's passes target: "mig" or
	// "aig" (flat netlists optimize through the MIG, so "mig" strategies
	// accept them too).
	Kind string `json:"kind"`
	// Objective is what the flow optimizes for: "size", "depth" or
	// "balanced".
	Objective string `json:"objective"`
	// Description says what the flow does and where it comes from.
	Description string `json:"description"`
	// Effort is the recommended effort class (1 = quick, 2 = standard,
	// 3 = thorough) — a cost hint, since a script's iteration counts are
	// fixed by its arguments.
	Effort int `json:"effort"`
	// Script is the pass script in canonical statement form.
	Script string `json:"script"`
	// Source is "curated" or "tuned".
	Source string `json:"source"`
}

// String renders the strategy header on one line.
func (s Strategy) String() string {
	return fmt.Sprintf("%-16s %s/%s effort=%d  %s", s.Name, s.Kind, s.Objective, s.Effort, s.Script)
}

// library is the name-keyed strategy table, and names its sorted keys.
// Both are built once at init from the checked-in tables (strategies.go,
// tuned.go) and never change.
var library, names = build(curated, tuned)

// build validates every entry — a non-empty, unique name and a script that
// parses against the live pass registry of its kind — and canonicalizes
// its script. An invalid entry is a build-time defect caught by panicking
// (the package tests exercise every entry).
func build(tables ...[]Strategy) (map[string]Strategy, []string) {
	lib := map[string]Strategy{}
	var names []string
	for _, table := range tables {
		for _, s := range table {
			if s.Name == "" {
				panic("script: strategy has no name")
			}
			canon, err := Canonical(s.Kind, s.Script)
			if err != nil {
				panic(fmt.Sprintf("script: strategy %q does not validate: %v", s.Name, err))
			}
			if _, dup := lib[s.Name]; dup {
				panic(fmt.Sprintf("script: duplicate strategy %q", s.Name))
			}
			s.Script = canon
			lib[s.Name] = s
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	return lib, names
}

// Canonical validates a pass script against the registry of the given kind
// ("mig" or "aig") and returns it in canonical statement form. The error is
// the located *opt.ScriptError the parser produces.
func Canonical(kind, script string) (string, error) {
	switch kind {
	case KindMIG:
		return opt.Canonical(mig.Passes(), script)
	case KindAIG:
		return opt.Canonical(aig.Passes(), script)
	}
	return "", fmt.Errorf("script: unknown strategy kind %q (want %s or %s)", kind, KindMIG, KindAIG)
}

// Lookup resolves a strategy by name.
func Lookup(name string) (Strategy, bool) {
	s, ok := library[name]
	return s, ok
}

// Names lists the library's strategy names in lexicographic order.
func Names() []string { return slices.Clone(names) }

// All returns every strategy, sorted by name.
func All() []Strategy {
	out := make([]Strategy, 0, len(names))
	for _, n := range names {
		out = append(out, library[n])
	}
	return out
}

// ForKind returns the strategies targeting one representation kind, sorted
// by name.
func ForKind(kind string) []Strategy {
	var out []Strategy
	for _, s := range All() {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// Format renders the library as an aligned listing, one strategy per name:
// header line (name, kind/objective, effort, source), then the description
// and the script, indented. Deterministic (sorted by name).
func Format() string {
	var b strings.Builder
	for _, s := range All() {
		fmt.Fprintf(&b, "%-18s %s/%-8s effort=%d %s\n", s.Name, s.Kind, s.Objective, s.Effort, s.Source)
		fmt.Fprintf(&b, "    %s\n", s.Description)
		fmt.Fprintf(&b, "    script: %s\n", s.Script)
	}
	return b.String()
}
