package logic

// The pass engine's per-step record, exposed as is: the engine fills one
// Step per committed pass, and the Trace a Session returns, the steps an
// Observer sees and the JSON the optimization service sends are that same
// value.

import (
	"context"

	"repro/internal/opt"
)

// Step records one optimization pass's effect: Pass (the pass name),
// SizeBefore/SizeAfter, DepthBefore/DepthAfter, ActivityBefore/
// ActivityAfter and Seconds (the pass's wall time). Equiv is "" when the
// step was not verified, "ok" when verified equivalent, otherwise the
// failure detail. The verification cost is kept apart from the pass's own
// time: VerifyMS is the checker's wall time in milliseconds, Conflicts and
// SolverRestarts the SAT effort it reported (all omitted from JSON when
// zero). The JSON keys are the snake_case field names (size_before,
// verify_ms, ...), in field order.
type Step = opt.Step

// Trace is the ordered per-pass record of one optimization run; Format
// renders it as an aligned table, one line per pass.
type Trace = opt.Trace

// Observer receives each completed pass's Step in pipeline order, on the
// goroutine running the optimization, the moment the step commits — long
// before the full Trace is returned. It must be fast: the engine invokes
// it synchronously between passes. This is the hook behind migd's SSE
// progress streaming and per-pass metrics.
type Observer = opt.Observer

// ContextWithObserver returns a context that reports each committed pass
// step of any optimization run under it to obs. A nil obs returns ctx
// unchanged.
func ContextWithObserver(ctx context.Context, obs Observer) context.Context {
	return opt.ContextWithObserver(ctx, obs)
}
