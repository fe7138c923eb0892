// Package opt is the repository's optimization spine: a generic,
// composable pass/pipeline engine over logic representations.
//
// The paper's Section IV algorithms are fixed interleavings of Ω/Ψ
// rewrites. Instead of hard-coding those interleavings inside the graph
// packages, each local transformation is exposed as a named Pass and the
// algorithms become Pipelines — ordered compositions of passes with a
// per-pass metrics trace (size, depth, switching activity, wall time) and
// optional functional-equivalence verification after every step.
//
// The engine is generic over the representation (the Graph constraint), so
// the MIG passes (internal/mig), the AIG passes (internal/aig) and any
// future representation share one pipeline, trace and script front-end. A
// Registry maps pass names to factories; Parse compiles textual pass
// scripts such as
//
//	eliminate(8); reshape-depth; eliminate
//
// into pipelines, which is how the mighty CLI exposes user-defined
// optimization scenarios.
package opt

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/equiv"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// Graph is the contract a logic representation must satisfy to be driven by
// a Pipeline: the three metrics the paper tracks, plus export to the
// generic netlist IR for equivalence checking.
type Graph interface {
	Size() int
	Depth() int
	Activity(inputProbs []float64) float64
	ToNetwork() *netlist.Network
}

// Pass is one named optimization step over graphs of type G. Apply must be
// functionally sound: its output is equivalent to its input. Apply honors
// ctx: long-running passes (SAT sweeping, window-parallel rewriting,
// best-of cycles) observe it inside the work and read their worker budget
// from it (WorkersCtx). An interrupted pass returns the input (or any
// valid intermediate) graph together with the context's error; the result
// accompanying a non-nil error must not be committed.
type Pass[G Graph] struct {
	Name  string
	Apply func(ctx context.Context, g G) (G, error)
}

// New adapts a pure transformation as a named Pass. A pure pass cannot be
// interrupted mid-run, so it does not start once ctx is done.
func New[G Graph](name string, fn func(G) G) Pass[G] {
	return Pass[G]{Name: name, Apply: func(ctx context.Context, g G) (G, error) {
		if err := ctx.Err(); err != nil {
			return g, err
		}
		return fn(g), nil
	}}
}

// Sequence composes passes into one compound pass.
func Sequence[G Graph](name string, passes ...Pass[G]) Pass[G] {
	return Pass[G]{Name: name, Apply: func(ctx context.Context, g G) (G, error) {
		for _, p := range passes {
			var err error
			if g, err = p.Apply(ctx, g); err != nil {
				return g, err
			}
		}
		return g, nil
	}}
}

// Best iterates rounds cycles of the passes produced by body(cycle),
// carrying the working graph from cycle to cycle (even through worsening
// cycles — that is what lets the algorithms escape local minima), and
// returns the best graph seen under better(candidate, incumbent). The
// input graph is the initial incumbent. Cancellation is checked between
// inner passes.
func Best[G Graph](name string, rounds int, better func(cand, best G) bool, body func(cycle int) []Pass[G]) Pass[G] {
	return Pass[G]{Name: name, Apply: func(ctx context.Context, g G) (G, error) {
		best, cur := g, g
		for cycle := 0; cycle < rounds; cycle++ {
			for _, p := range body(cycle) {
				var err error
				if cur, err = p.Apply(ctx, cur); err != nil {
					return best, err
				}
			}
			if better(cur, best) {
				best = cur
			}
		}
		return best, nil
	}}
}

// Step is one per-pass trace entry recorded by Pipeline.Run. It is also
// the public wire record: logic.Step aliases it, so its JSON tags are the
// step format of migd responses and SSE "step" events. encoding/json emits
// fields in declaration order, so the order is part of that format too.
type Step struct {
	Pass           string  `json:"pass"`
	SizeBefore     int     `json:"size_before"`
	SizeAfter      int     `json:"size_after"`
	DepthBefore    int     `json:"depth_before"`
	DepthAfter     int     `json:"depth_after"`
	ActivityBefore float64 `json:"activity_before"`
	ActivityAfter  float64 `json:"activity_after"`
	Seconds        float64 `json:"seconds"`
	// Equiv is "" when the step was not verified, "ok" when verified
	// equivalent, otherwise the failure detail.
	Equiv string `json:"equiv,omitempty"`
	// Verification cost, separated from the pass's own wall time: VerifyMS
	// is the checker's wall time in milliseconds, Conflicts and
	// SolverRestarts the SAT effort it reported. All omitted when the step
	// was not verified or the check needed no solving.
	VerifyMS       float64 `json:"verify_ms,omitempty"`
	Conflicts      int64   `json:"conflicts,omitempty"`
	SolverRestarts int64   `json:"solver_restarts,omitempty"`
}

// Trace is the ordered per-pass record of one pipeline run.
type Trace []Step

// Format renders the trace as an aligned table (one line per pass).
func (t Trace) Format() string {
	var b strings.Builder
	for _, s := range t {
		fmt.Fprintf(&b, "%-28s size %5d -> %5d   depth %3d -> %3d   act %8.2f -> %8.2f   %7.3fs",
			s.Pass, s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter,
			s.ActivityBefore, s.ActivityAfter, s.Seconds)
		if s.Equiv != "" {
			fmt.Fprintf(&b, "   equiv=%s", s.Equiv)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckStats is the cost a Checker reports for one verification: the SAT
// effort behind the verdict (zero for the non-SAT engines).
type CheckStats struct {
	Conflicts int64
	Restarts  int64
}

// Checker verifies that got is functionally equivalent to ref, returning a
// non-nil error when it is not (or when the check itself fails), plus the
// solving effort spent either way. The context carries the pipeline run's
// deadline into SAT-backed engines. Pipeline.Run passes the network
// the previous check accepted as ref (the input's network for the first
// pass), so each pass is proved against its predecessor and the chain
// back to the input closes by transitivity.
type Checker func(ctx context.Context, ref, got *netlist.Network) (CheckStats, error)

// EquivChecker adapts the one-shot equiv engine to the Checker contract:
// every check builds its verdict from scratch.
func EquivChecker(opts equiv.Options) Checker {
	return func(ctx context.Context, ref, got *netlist.Network) (CheckStats, error) {
		res, err := equiv.Check(ctx, ref, got, opts)
		if err != nil {
			return CheckStats{}, err
		}
		stats := CheckStats{Conflicts: res.Conflicts, Restarts: res.Restarts}
		if !res.Equivalent {
			return stats, fmt.Errorf("not equivalent (%s)", res.Detail)
		}
		return stats, nil
	}
}

// Pipeline is an ordered composition of passes.
type Pipeline[G Graph] struct {
	Passes []Pass[G]
	// Check, when non-nil, verifies after every pass that the working graph
	// is still functionally equivalent to the graph before that pass.
	Check Checker
}

// Append adds passes and returns the pipeline (builder style).
func (p *Pipeline[G]) Append(passes ...Pass[G]) *Pipeline[G] {
	p.Passes = append(p.Passes, passes...)
	return p
}

// String renders the pipeline in script form; for pipelines produced by
// Parse the result parses back to an identical pipeline.
func (p *Pipeline[G]) String() string {
	names := make([]string, len(p.Passes))
	for i, ps := range p.Passes {
		names[i] = ps.Name
	}
	return strings.Join(names, "; ")
}

// Run applies the passes in order under ctx, recording one trace Step per
// pass. When Check is set, every pass result is verified against the
// previous one (see Checker); the first violation aborts the run,
// returning the last good graph, the trace up to and including the
// offending step, and an error. Cancellation or deadline expiry is
// observed between passes, inside the passes themselves, and inside
// SAT-backed checkers, so long solves are interrupted promptly; on
// interruption the last completed graph, the trace so far, and the
// context's error are returned.
func (p *Pipeline[G]) Run(ctx context.Context, g G) (G, Trace, error) {
	// One counterexample pool per run unless the caller scoped one wider
	// (sharing refutation patterns across several runs): every fraig pass
	// downstream starts from classes pre-refined by the patterns earlier
	// passes discovered.
	if sweep.PoolFrom(ctx) == nil {
		ctx = sweep.ContextWithPool(ctx, sweep.NewCexPool(0))
	}
	var ref *netlist.Network
	if p.Check != nil {
		ref = g.ToNetwork()
	}
	// Fetched once per run: the per-pass cost of an absent observer is a
	// nil comparison, and of a present one a direct call.
	obs := ObserverFrom(ctx)
	trace := make(Trace, 0, len(p.Passes))
	cur := g
	// A step's before-metrics are the previous step's after-metrics on the
	// same graph, so only the first step measures its input.
	var st Step
	for i, ps := range p.Passes {
		if err := ctx.Err(); err != nil {
			return cur, trace, err
		}
		if i == 0 {
			st.SizeAfter, st.DepthAfter, st.ActivityAfter = cur.Size(), cur.Depth(), cur.Activity(nil)
		}
		st = Step{
			Pass:           ps.Name,
			SizeBefore:     st.SizeAfter,
			DepthBefore:    st.DepthAfter,
			ActivityBefore: st.ActivityAfter,
		}
		start := time.Now()
		next, err := ps.Apply(ctx, cur)
		if err != nil {
			return cur, trace, fmt.Errorf("opt: pass %q interrupted: %w", ps.Name, err)
		}
		st.Seconds = time.Since(start).Seconds()
		st.SizeAfter = next.Size()
		st.DepthAfter = next.Depth()
		st.ActivityAfter = next.Activity(nil)
		if p.Check != nil {
			vstart := time.Now()
			got := next.ToNetwork()
			cost, err := p.Check(ctx, ref, got)
			st.VerifyMS = time.Since(vstart).Seconds() * 1000
			st.Conflicts = cost.Conflicts
			st.SolverRestarts = cost.Restarts
			if err != nil {
				if ctx.Err() != nil {
					// The check was interrupted, not failed.
					return cur, trace, fmt.Errorf("opt: pass %q interrupted: %w", ps.Name, ctx.Err())
				}
				st.Equiv = err.Error()
				trace = append(trace, st)
				if obs != nil {
					obs(st)
				}
				return cur, trace, fmt.Errorf("opt: pass %q broke equivalence: %w", ps.Name, err)
			}
			st.Equiv = "ok"
			ref = got
		}
		trace = append(trace, st)
		if obs != nil {
			obs(st)
		}
		cur = next
	}
	return cur, trace, nil
}
