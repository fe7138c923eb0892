package script

// The script tuner: searches the space of pass scripts for a strategy that
// beats the canned flows on a circuit suite. The search is greedy
// pass-append (grow the script one statement at a time, keeping the best
// strictly-improving extension) alternated with a single-statement local
// search (try every deletion and every substitution of the incumbent), the
// classic iterated-local-search shape for sequence spaces. Scripts are
// scored by the geometric mean of the primary objective over the suite,
// with the other metric as tiebreak; trials are deduped by canonical
// script text, and the whole run is budgeted by wall clock, a trial cap,
// and the caller's context.
//
// The tuner is deliberately evaluator-agnostic: an Evaluator runs one
// (circuit, script) pair and reports the optimized metrics.
// logic/bench.ScriptEvaluator supplies the MCNC-backed implementation used
// by migbench -tune; tests inject synthetic evaluators.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Metrics are the quantities the tuner scores a script by on one circuit.
type Metrics struct {
	Size  int `json:"size"`
	Depth int `json:"depth"`
}

// Evaluator runs a MIG pass script on a named circuit and returns the
// optimized metrics. It must be deterministic in (circuit, script); the
// context carries the tuning run's deadline.
type Evaluator func(ctx context.Context, circuit, script string) (Metrics, error)

// TuneOptions configures a Tune run. Zero values take the documented
// defaults; Eval and Circuits are required.
type TuneOptions struct {
	// Objective is the primary metric: "size" (default) or "depth". The
	// other metric breaks ties.
	Objective string
	// Circuits are the suite the evaluator resolves by name (for the
	// MCNC-backed evaluator: bench.Circuits() names).
	Circuits []string
	// Eval scores one (circuit, script) pair.
	Eval Evaluator
	// Seed is the starting script (default "cleanup").
	Seed string
	// Candidates are the statements the search may append or substitute
	// (default DefaultCandidates()). Each must validate against the MIG
	// pass registry.
	Candidates []string
	// MaxLen caps the script length in statements (default 12).
	MaxLen int
	// Budget bounds the run's wall clock (0 = unbounded). The incumbent
	// best script is returned when the budget expires mid-search.
	Budget time.Duration
	// MaxTrials caps the number of distinct scripts evaluated (0 =
	// unbounded) — a deterministic budget for tests and CI.
	MaxTrials int
	// Name names the emitted strategy (default "tuned-<objective>").
	Name string
	// Log, when non-nil, receives one line per accepted improvement.
	Log io.Writer
}

// Trial records one evaluated script with its suite geomeans.
type Trial struct {
	Script string  `json:"script"`
	Size   float64 `json:"size"`
	Depth  float64 `json:"depth"`
}

// TuneResult is the outcome of a Tune run.
type TuneResult struct {
	// Best is the winning script packaged as a Strategy (Source
	// "tuned"). It is not added to the library; check it in (tuned.go)
	// to ship it.
	Best Strategy `json:"best"`
	// BestSize and BestDepth are the suite geomeans of Best.
	BestSize  float64 `json:"best_size"`
	BestDepth float64 `json:"best_depth"`
	// SeedSize and SeedDepth are the suite geomeans of the seed script.
	SeedSize  float64 `json:"seed_size"`
	SeedDepth float64 `json:"seed_depth"`
	// Trials counts distinct scripts evaluated.
	Trials int `json:"trials"`
	// Stopped says why the search ended: "converged" (local optimum,
	// including when MaxLen suppressed further appends), "budget",
	// "trials" or "ctx".
	Stopped string `json:"stopped"`
	// History holds every accepted incumbent, seed first.
	History []Trial `json:"history"`
}

// DefaultCandidates returns the default statement pool: every registered
// MIG pass at its default arguments, plus a wider elimination window.
func DefaultCandidates() []string {
	return []string{
		"cleanup", "eliminate", "eliminate(8)", "eliminate-budget",
		"reshape-size", "reshape-depth", "pushup", "cut-rewrite",
		"window-rewrite", "rewrite-npn", "fraig", "activity",
	}
}

// errStop is the internal sentinel the budget checks raise to unwind the
// search while keeping the incumbent.
var errStop = errors.New("script: tuning budget exhausted")

// tuner is one Tune run's state.
type tuner struct {
	o        TuneOptions
	start    time.Time
	evals    map[string]Trial // canonical script -> geomeans
	trials   int
	stopped  string
	depthObj bool
}

// Tune searches for a script minimizing the objective over the suite and
// returns the best strategy found (the seed, at worst). Only the error
// cases that make the search meaningless — bad options, an evaluator
// failure, cancellation before the seed is scored — return an error; budget
// expiry mid-search returns the incumbent.
func Tune(ctx context.Context, o TuneOptions) (*TuneResult, error) {
	if o.Eval == nil {
		return nil, errors.New("script: TuneOptions.Eval is required")
	}
	if len(o.Circuits) == 0 {
		return nil, errors.New("script: TuneOptions.Circuits is empty")
	}
	switch o.Objective {
	case "":
		o.Objective = "size"
	case "size", "depth":
	default:
		return nil, fmt.Errorf("script: unknown tuning objective %q (want size or depth)", o.Objective)
	}
	if o.Seed == "" {
		o.Seed = "cleanup"
	}
	if len(o.Candidates) == 0 {
		o.Candidates = DefaultCandidates()
	}
	if o.MaxLen <= 0 {
		o.MaxLen = 12
	}
	if o.Name == "" {
		o.Name = "tuned-" + o.Objective
	}
	seed, err := Canonical(KindMIG, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("script: bad seed: %w", err)
	}
	cands := make([]string, 0, len(o.Candidates))
	for _, c := range o.Candidates {
		canon, err := Canonical(KindMIG, c)
		if err != nil {
			return nil, fmt.Errorf("script: bad candidate %q: %w", c, err)
		}
		cands = append(cands, canon)
	}
	o.Candidates = cands

	t := &tuner{o: o, start: time.Now(), evals: make(map[string]Trial), depthObj: o.Objective == "depth"}
	best, err := t.eval(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("script: seed evaluation failed: %w", err)
	}
	res := &TuneResult{SeedSize: best.Size, SeedDepth: best.Depth, History: []Trial{best}}

	for {
		next, ok, err := t.improve(ctx, best)
		if err != nil {
			if errors.Is(err, errStop) {
				break
			}
			return nil, err
		}
		if !ok {
			t.stopped = "converged"
			break
		}
		best = next
		res.History = append(res.History, best)
		if t.o.Log != nil {
			fmt.Fprintf(t.o.Log, "tune: %s=%.2f (depth %.2f, size %.2f) <- %s\n",
				o.Objective, t.primary(best), best.Depth, best.Size, best.Script)
		}
	}

	res.Best = Strategy{
		Name:      o.Name,
		Kind:      KindMIG,
		Objective: o.Objective,
		Description: fmt.Sprintf("Tuned for %s on %s: greedy pass-append with single-statement local search over the MIG pass registry (%d trials).",
			o.Objective, strings.Join(o.Circuits, ","), t.trials),
		Effort: 2,
		Script: best.Script,
		Source: SourceTuned,
	}
	res.BestSize, res.BestDepth = best.Size, best.Depth
	res.Trials = t.trials
	res.Stopped = t.stopped
	return res, nil
}

// improve tries to strictly improve the incumbent: first by appending one
// candidate statement, then by deleting or substituting one statement. The
// best improving neighbor is returned; ok=false means a local optimum.
func (t *tuner) improve(ctx context.Context, inc Trial) (Trial, bool, error) {
	stmts := strings.Split(inc.Script, "; ")
	var neighbors []string
	if len(stmts) < t.o.MaxLen {
		for _, c := range t.o.Candidates {
			neighbors = append(neighbors, inc.Script+"; "+c)
		}
	}
	for i := range stmts {
		if len(stmts) > 1 {
			del := append(append([]string(nil), stmts[:i]...), stmts[i+1:]...)
			neighbors = append(neighbors, strings.Join(del, "; "))
		}
		for _, c := range t.o.Candidates {
			if c == stmts[i] {
				continue
			}
			sub := append([]string(nil), stmts...)
			sub[i] = c
			neighbors = append(neighbors, strings.Join(sub, "; "))
		}
	}

	best, ok := inc, false
	for _, n := range neighbors {
		tr, err := t.eval(ctx, n)
		if err != nil {
			// Return the progress made before the budget ran out.
			if errors.Is(err, errStop) && ok {
				return best, true, nil
			}
			return inc, false, err
		}
		if t.better(tr, best) {
			best, ok = tr, true
		}
	}
	return best, ok, nil
}

// primary is the objective's geomean.
func (t *tuner) primary(tr Trial) float64 {
	if t.depthObj {
		return tr.Depth
	}
	return tr.Size
}

// better reports whether a strictly improves on b: a lower primary
// geomean, or an equal primary and a lower secondary.
func (t *tuner) better(a, b Trial) bool {
	const eps = 1e-9
	pa, pb := t.primary(a), t.primary(b)
	if pa < pb-eps {
		return true
	}
	if pa > pb+eps {
		return false
	}
	sa, sb := a.Depth, b.Depth
	if t.depthObj {
		sa, sb = a.Size, b.Size
	}
	return sa < sb-eps
}

// eval scores one script (memoized by canonical text), charging the trial
// and budget counters only on cache misses.
func (t *tuner) eval(ctx context.Context, s string) (Trial, error) {
	if tr, ok := t.evals[s]; ok {
		return tr, nil
	}
	if err := ctx.Err(); err != nil {
		t.stopped = "ctx"
		return Trial{}, errStop
	}
	if t.o.Budget > 0 && time.Since(t.start) >= t.o.Budget {
		t.stopped = "budget"
		return Trial{}, errStop
	}
	if t.o.MaxTrials > 0 && t.trials >= t.o.MaxTrials {
		t.stopped = "trials"
		return Trial{}, errStop
	}
	t.trials++
	var logSize, logDepth float64
	for _, c := range t.o.Circuits {
		m, err := t.o.Eval(ctx, c, s)
		if err != nil {
			if ctx.Err() != nil {
				t.stopped = "ctx"
				return Trial{}, errStop
			}
			return Trial{}, fmt.Errorf("evaluate %q on %s: %w", s, c, err)
		}
		logSize += math.Log(math.Max(float64(m.Size), 1))
		logDepth += math.Log(math.Max(float64(m.Depth), 1))
	}
	n := float64(len(t.o.Circuits))
	tr := Trial{Script: s, Size: math.Exp(logSize / n), Depth: math.Exp(logDepth / n)}
	t.evals[s] = tr
	return tr, nil
}
