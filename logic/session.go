package logic

// Session: the SDK's configured optimizer. Functional options replace the
// bare config-struct literals of earlier revisions; Optimize threads its
// context through the pass pipeline, the window-parallel workers and the
// SAT solver's conflict loop, so a deadline or cancellation interrupts
// C6288-class solves promptly instead of waiting out conflict budgets.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aig"
	"repro/internal/equiv"
	"repro/internal/flow"
	"repro/internal/mig"
	"repro/internal/opt"
)

// Session is an immutable optimizer configuration. Build one with
// NewSession; the zero set of options reproduces the mighty CLI's defaults
// (the paper's §V.A flow at effort 3, no verification).
type Session struct {
	flow    flow.Spec
	workers int
	// strategy and strategyKind record a WithStrategy resolution: the
	// library name behind the flow's script, and the representation it
	// targets.
	strategy     string
	strategyKind string
	verify       string // equivalence engine; "" = verification off
	verifyOn     bool
}

// Option configures a Session.
type Option func(*Session) error

// WithEffort sets the optimization effort (the paper's Alg. 1/2 cycle
// count; CLI default 3).
func WithEffort(n int) Option {
	return func(s *Session) error {
		if n < 1 {
			return fmt.Errorf("logic: effort %d, must be >= 1", n)
		}
		s.flow.Effort = n
		return nil
	}
}

// WithObjective selects the canned optimization target: "size" (Alg. 1),
// "depth" (Alg. 2), "activity" (§IV.C), "flow" (the paper's experimental
// recipe, the default), or "none" (representation conversion only).
func WithObjective(o string) Option {
	return func(s *Session) error {
		if err := flow.CheckObjective(o); err != nil {
			return fmt.Errorf("logic: %w", err)
		}
		s.flow.Objective = o
		return nil
	}
}

// WithScript replaces the canned objective with a pass script such as
// "eliminate(8); reshape-depth; fraig" compiled against the input
// representation's pass registry (see Passes). Use WithStrategy to resolve
// a named script from the strategy library instead; a later WithScript
// clears any earlier strategy resolution.
func WithScript(script string) Option {
	return func(s *Session) error {
		s.flow.Script = script
		s.strategy, s.strategyKind = "", ""
		return nil
	}
}

// WithVerify enables functional-equivalence verification with the given
// engine: "auto" (layers exact → BDD → SAT → simulation by circuit size),
// "exact", "bdd", "sim", "sat", or "none"/"" to disable. Scripted runs are
// additionally checked after every pass.
func WithVerify(engine string) Option {
	return func(s *Session) error {
		eng, on, err := normalizeVerify(engine)
		if err != nil {
			return err
		}
		s.verify, s.verifyOn = eng, on
		return nil
	}
}

// WithWorkers sets the worker budget for parallel-safe passes
// (window-rewrite, fraig) on this session's runs. Results are
// byte-identical for any value. Zero (the default) inherits the
// process-wide budget.
func WithWorkers(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("logic: workers %d, must be >= 0", n)
		}
		s.workers = n
		return nil
	}
}

// WithFraig appends the simulation-guided SAT-sweeping pass to the canned
// flows, objective "none" included (ignored when a script is set —
// scripts name fraig explicitly).
func WithFraig(on bool) Option {
	return func(s *Session) error {
		s.flow.Fraig = on
		return nil
	}
}

// WithAIGRounds sets the resyn2 iteration count for AIG inputs (default 2).
func WithAIGRounds(n int) Option {
	return func(s *Session) error {
		if n < 1 {
			return fmt.Errorf("logic: aig rounds %d, must be >= 1", n)
		}
		s.flow.AIGRounds = n
		return nil
	}
}

// WithActivityProbs sets the input one-probability profile the "activity"
// objective optimizes under (nil = uniform 0.5): one probability in [0, 1]
// per primary input, in declaration order. Optimize rejects a profile
// whose length differs from the input count.
func WithActivityProbs(probs []float64) Option {
	return func(s *Session) error {
		for i, p := range probs {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("logic: activity probability %v for input %d, must be in [0, 1]", p, i)
			}
		}
		s.flow.Probs = append([]float64(nil), probs...)
		return nil
	}
}

// normalizeVerify maps the user spelling of a verification engine to
// (engine, enabled).
func normalizeVerify(v string) (string, bool, error) {
	switch v {
	case "", "none", "off", "false":
		return "", false, nil
	case "auto", "true":
		return "", true, nil
	case "exact", "bdd", "sim", "sat":
		return v, true, nil
	}
	return "", false, fmt.Errorf("logic: unknown verify engine %q (want auto, exact, bdd, sim, sat or none)", v)
}

// NewSession builds a Session from options. The zero-option session
// matches the mighty CLI defaults: the flow defaults of internal/flow
// (objective "flow", effort 3, AIG rounds 2), no verification, inherited
// worker budget.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Script returns the session's pass script ("" when a canned objective is
// configured).
func (s *Session) Script() string { return s.flow.Script }

// Result carries the metrics of one Optimize call. Before is measured on
// the network the run starts from: the input itself for MIG and AIG
// inputs, the remajorized MIG for flat ones, so it counts the same unit as
// After.
type Result struct {
	Before  Stats   `json:"before"`
	After   Stats   `json:"after"`
	Trace   Trace   `json:"trace"`
	Seconds float64 `json:"seconds"`
	// VerifyMethod is the equivalence engine that confirmed the result
	// ("" when verification was off).
	VerifyMethod string `json:"verify_method,omitempty"`
	VerifyDetail string `json:"verify_detail,omitempty"`
}

// Optimize runs the session's configuration on net and returns the
// optimized network in the same representation family: MIG and flat
// inputs produce a *MIG (flat netlists are remajorized first, exactly as
// the mighty CLI does), AIG inputs produce an *AIG. The context's deadline
// and cancellation interrupt the run — including SAT-backed verification
// and sweeping — promptly; on interruption the returned error wraps the
// context's.
func (s *Session) Optimize(ctx context.Context, net Network) (Network, *Result, error) {
	if s.workers > 0 {
		ctx = opt.ContextWithWorkers(ctx, s.workers)
	}
	start := time.Now()
	// The run starts from net itself for MIG and AIG inputs and from the
	// remajorized MIG for flat ones. Before is measured there, so both
	// sides of the result count one unit.
	in := net
	if k := net.Kind(); k != KindMIG && k != KindAIG {
		in = &MIG{g: mig.FromNetwork(net.flat().Remajorize())}
	}
	res := &Result{Before: in.Stats()}
	if n := len(s.flow.Probs); n > 0 && n != net.NumInputs() {
		return nil, res, fmt.Errorf("logic: activity profile has %d probabilities, input has %d inputs", n, net.NumInputs())
	}

	var optimized Network
	var err error
	if in.Kind() == KindAIG {
		var out *aig.AIG
		out, res.Trace, err = runFlow(ctx, s, KindAIG, flow.Spec.AIG, in.(*AIG).g)
		optimized = &AIG{g: out}
	} else {
		var out *mig.MIG
		out, res.Trace, err = runFlow(ctx, s, KindMIG, flow.Spec.MIG, in.(*MIG).g)
		optimized = &MIG{g: out}
	}
	if err != nil {
		return nil, res, err
	}

	if s.verifyOn {
		check, err := equiv.CheckCtx(ctx, net.flat(), optimized.flat(), equiv.Options{Engine: s.verify})
		if err != nil {
			return nil, res, err
		}
		if !check.Equivalent {
			return nil, res, fmt.Errorf("logic: optimization broke functional equivalence (%s)", check.Detail)
		}
		res.VerifyMethod = string(check.Method)
		res.VerifyDetail = check.Detail
	}

	res.Seconds = time.Since(start).Seconds()
	res.After = optimized.Stats()
	return optimized, res, nil
}

// runFlow resolves the session's flow for one representation (kind
// checks a WithStrategy resolution against it) and runs it on g, checking
// every pass of a scripted run when verification is on.
func runFlow[G opt.Graph](ctx context.Context, s *Session, kind Kind, resolve func(flow.Spec) (*opt.Pipeline[G], error), g G) (G, Trace, error) {
	if err := s.checkStrategyKind(kind); err != nil {
		return g, nil, err
	}
	pipe, err := resolve(s.flow)
	if err != nil {
		return g, nil, err
	}
	if s.verifyOn && s.flow.Script != "" {
		pipe.Check = s.stepChecker()
	}
	return pipe.RunContext(ctx, g)
}

// stepChecker selects the per-pass verifier for scripted runs. The default
// and SAT engines use the incremental cone-diff checker — each step is
// proved against the previous one with a persistent solver, and outputs a
// pass did not touch are discharged structurally — while a forced exact,
// BDD or simulation engine keeps its one-shot per-step semantics.
func (s *Session) stepChecker() opt.Checker {
	switch s.verify {
	case "", "sat":
		return opt.IncrementalChecker(equiv.Options{Engine: s.verify})
	}
	return opt.EquivChecker(equiv.Options{Engine: s.verify})
}

// EquivResult reports an equivalence check.
type EquivResult struct {
	Equivalent bool   `json:"equivalent"`
	Method     string `json:"method"`
	Detail     string `json:"detail,omitempty"`
}

// Equivalent checks two Networks for functional equivalence (inputs
// matched positionally) with the given engine ("" or "auto" layers
// exact → BDD → SAT → simulation). Cancellation interrupts SAT-backed
// checks promptly.
func Equivalent(ctx context.Context, a, b Network, engine string) (EquivResult, error) {
	eng, _, err := normalizeVerify(engine)
	if err != nil {
		return EquivResult{}, err
	}
	res, err := equiv.CheckCtx(ctx, a.flat(), b.flat(), equiv.Options{Engine: eng})
	if err != nil {
		return EquivResult{}, err
	}
	return EquivResult{Equivalent: res.Equivalent, Method: string(res.Method), Detail: res.Detail}, nil
}

// ValidateScript compiles a pass script against the given representation's
// registry without running it, returning the located parse error
// (opt.ScriptError) on failure. Services use it to reject bad requests
// before queueing work.
func ValidateScript(kind Kind, script string) error {
	switch kind {
	case KindAIG:
		_, err := aig.ParseScript(script)
		return err
	default:
		_, err := mig.ParseScript(script)
		return err
	}
}
