package logic

// Session: the SDK's configured optimizer. Functional options replace the
// bare config-struct literals of earlier revisions; Optimize threads its
// context through the pass pipeline, the window-parallel workers and the
// SAT solver's conflict loop, so a deadline or cancellation interrupts
// C6288-class solves promptly; the deadline is the only bound on an
// equivalence proof.

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
	verify       string // canonical engine name (ParseVerify)
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
// engine: "auto" (layers exact → BDD → SAT by circuit size), "exact",
// "bdd", "sim", "sat", or "none"/"" to disable. "auto" always proves or
// refutes: Result.VerifyMethod is "exact", "bdd" or "sat", and the
// context's deadline is the only bound, so an undecided check returns the
// context's error. Scripted runs are additionally checked after every
// pass, each pass against the one before it; under "auto" those per-pass
// checks use the SAT engine.
func WithVerify(engine string) Option {
	return func(s *Session) error {
		eng, on, err := ParseVerify(engine)
		if err != nil {
			return err
		}
		s.verify, s.verifyOn = eng, on
		return nil
	}
}

// WithWorkers sets the worker budget for parallel-safe passes
// (window-rewrite, rewrite-npn, fraig) on this session's runs. Results are
// byte-identical for any value. Zero (the default) keeps the budget of the
// context Optimize is called with, which is 1 (serial) when it carries
// none.
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

// ParseVerify maps a spelling of a verification engine to its canonical
// name and whether verification is on. "auto" and "true" are "auto";
// "exact", "bdd", "sim" and "sat" name themselves; "", "none", "off" and
// "false" turn verification off and are "none". Any other spelling is an
// error. WithVerify and migbench's -verify flag read engines through it.
func ParseVerify(v string) (engine string, on bool, err error) {
	switch v {
	case "", "none", "off", "false":
		return "none", false, nil
	case "auto", "true":
		return "auto", true, nil
	case "exact", "bdd", "sim", "sat":
		return v, true, nil
	}
	return "", false, fmt.Errorf("logic: unknown verify engine %q (want auto, exact, bdd, sim, sat or none)", v)
}

// NewSession builds a Session from options. The zero-option session
// matches the mighty CLI defaults: the flow defaults of internal/flow
// (objective "flow", effort 3, AIG rounds 2), no verification, and the
// worker budget of the context Optimize is called with.
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
		check, err := equiv.Check(ctx, net.flat(), optimized.flat(), equiv.Options{Engine: s.verify})
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
		// Each pass is proved against the one before it. For the default
		// engine that is a job for the SAT miter, not the auto ladder:
		// consecutive networks are the case its internal-point sweep
		// proves with about one cheap query per node, while the ladder
		// first spends its budgeted BDD attempt on every pass. Measured
		// with migscript3 (-jobs 2, 2 cores, median wall of 3 runs), the
		// ladder would win where its BDD decides (s38417 0.83 s against
		// 1.38 s, bigkey 0.06 s against 0.22 s) and lose on the seven
		// MCNC stand-ins where the attempt overflows (clma +120 ms, C6288
		// +87, mm30a +62, C1908 +59, cla +44, my_adder +37, dalu +24).
		// With the trade mixed, the checks stay with the sweep, whose cost
		// does not hinge on a variable order. Like every SAT solve, the
		// check is bounded by ctx's deadline.
		engine := s.verify
		if engine == "auto" {
			engine = "sat"
		}
		pipe.Check = opt.EquivChecker(equiv.Options{Engine: engine})
	}
	return pipe.Run(ctx, g)
}

// EquivResult reports an equivalence check.
type EquivResult struct {
	Equivalent bool   `json:"equivalent"`
	Method     string `json:"method"`
	Detail     string `json:"detail,omitempty"`
}

// Equivalent checks two Networks for functional equivalence (inputs
// matched positionally) with the given engine: "auto" (or "") layers
// exact → BDD → SAT and reports "exact", "bdd" or "sat"; "exact", "bdd",
// "sat" and "sim" force one engine, and only "sim" reports "simulation".
// The spellings that turn WithVerify off ("none", "off", "false") are
// errors here. Cancellation and the deadline, the only bound, interrupt
// SAT-backed checks promptly with the context's error.
func Equivalent(ctx context.Context, a, b Network, engine string) (EquivResult, error) {
	if engine == "" {
		engine = "auto"
	}
	eng, on, err := ParseVerify(engine)
	if err != nil || !on {
		return EquivResult{}, fmt.Errorf("logic: equivalence engine %q is not one of auto, exact, bdd, sim or sat", engine)
	}
	res, err := equiv.Check(ctx, a.flat(), b.flat(), equiv.Options{Engine: eng})
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
