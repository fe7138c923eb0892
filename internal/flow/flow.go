// Package flow turns an optimization request into the pass pipeline that
// runs it, for both graph representations. It is the one place that knows
// the objective names, the flow defaults, that a script replaces the
// canned flow, and what the Fraig and NPN options append. Session, the
// partition engine and the benchmark legs all describe their request as a
// Spec and run the pipeline it resolves to.
//
// Canned flows are built from the pass constructors, not parsed from
// script text, so their trace steps carry the bare pass names ("cleanup",
// "alg2-depth", "resyn2", ...) that per-pass metrics key on.
package flow

import (
	"fmt"
	"slices"

	"repro/internal/aig"
	"repro/internal/mig"
	"repro/internal/opt"
)

// The defaults a Spec's zero fields resolve to: the paper's §V.A flow at
// effort 3, and two resyn2 rounds on the AIG side.
const (
	defaultObjective = "flow"
	defaultEffort    = 3
	defaultAIGRounds = 2
)

// objectives lists the canned optimization targets.
var objectives = []string{"size", "depth", "activity", "flow", "none"}

// Spec is one optimization request.
type Spec struct {
	// Objective selects the canned flow: "size" (Algorithm 1), "depth"
	// (Algorithm 2), "activity" (§IV.C), "flow" (§V.A) or "none" (no
	// optimization passes). "" means "flow".
	Objective string
	// Effort is the Algorithm 1/2 cycle count of the MIG flows (0 means 3).
	Effort int
	// AIGRounds is the resyn2 round count of the AIG flow (0 means 2).
	AIGRounds int
	// Script, when set, replaces the canned flow. A script names its own
	// passes, so Fraig and NPN do not apply to it.
	Script string
	// Fraig appends SAT sweeping to the canned flow, "none" included.
	Fraig bool
	// NPN appends exact NPN rewriting to the canned MIG flow, before
	// Fraig's sweep.
	NPN bool
	// Probs is the input one-probability profile of the activity flow
	// (nil means uniform 0.5).
	Probs []float64
}

// CheckObjective rejects a name that is not a canned objective.
func CheckObjective(o string) error {
	if !slices.Contains(objectives, o) {
		return fmt.Errorf("unknown objective %q (want size, depth, activity, flow or none)", o)
	}
	return nil
}

// resolve fills the defaults and validates the objective.
func (s Spec) resolve() (Spec, error) {
	if s.Objective == "" {
		s.Objective = defaultObjective
	}
	if s.Effort <= 0 {
		s.Effort = defaultEffort
	}
	if s.AIGRounds <= 0 {
		s.AIGRounds = defaultAIGRounds
	}
	return s, CheckObjective(s.Objective)
}

// MIG returns the spec's MIG pipeline: the script compiled against the
// MIG pass registry, or the objective's canned flow plus the NPN and
// Fraig appends.
func (s Spec) MIG() (*opt.Pipeline[*mig.MIG], error) {
	s, err := s.resolve()
	if err != nil {
		return nil, err
	}
	if s.Script != "" {
		return mig.ParseScript(s.Script)
	}
	var p *opt.Pipeline[*mig.MIG]
	switch s.Objective {
	case "size":
		p = mig.SizePipeline(s.Effort)
	case "depth":
		p = mig.DepthPipeline(s.Effort)
	case "activity":
		p = mig.ActivityPipeline(s.Effort, s.Probs)
	case "flow":
		p = mig.FlowPipeline(s.Effort)
	default: // "none"
		p = &opt.Pipeline[*mig.MIG]{}
	}
	if s.NPN {
		p.Append(mig.Passes().MustNew("rewrite-npn"))
	}
	if s.Fraig {
		p.Append(mig.Passes().MustNew("fraig"))
	}
	return p, nil
}

// AIG returns the spec's AIG pipeline: the script compiled against the
// AIG pass registry, or the resyn2 recipe plus a final balance (every
// objective but "none" runs this one AIG flow) and the Fraig append.
func (s Spec) AIG() (*opt.Pipeline[*aig.AIG], error) {
	s, err := s.resolve()
	if err != nil {
		return nil, err
	}
	if s.Script != "" {
		return aig.ParseScript(s.Script)
	}
	p := &opt.Pipeline[*aig.AIG]{}
	if s.Objective != "none" {
		p = aig.Resyn2Pipeline(s.AIGRounds).Append(aig.Passes().MustNew("balance"))
	}
	if s.Fraig {
		p.Append(aig.Passes().MustNew("fraig"))
	}
	return p, nil
}
