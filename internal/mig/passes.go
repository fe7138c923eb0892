package mig

// Pass registry and canned pipelines. The Section IV algorithms are
// expressed on top of the generic pass engine (internal/opt): each local
// Ω/Ψ rewrite sweep is a registered, script-addressable pass, and the
// paper's fixed interleavings (Algorithm 1, Algorithm 2, the experimental
// flow) are pipelines composed from them. mighty's -script flag accepts any
// other composition.

import (
	"context"
	"fmt"

	"repro/internal/opt"
	"repro/internal/sweep"
)

// Pass comparators used by the best-tracking cycles.
func betterBySizeDepth(cand, best *MIG) bool {
	return cand.Size() < best.Size() || (cand.Size() == best.Size() && cand.Depth() < best.Depth())
}

func betterByDepthSize(cand, best *MIG) bool {
	return cand.Depth() < best.Depth() || (cand.Depth() == best.Depth() && cand.Size() < best.Size())
}

// pushUpToConvergence iterates PushUpPass while depth strictly improves
// (accepting a final same-depth size improvement), at most iters times.
func pushUpToConvergence(m *MIG, iters int) *MIG {
	cur := m
	for i := 0; i < iters; i++ {
		next := cur.PushUpPass()
		if next.Depth() < cur.Depth() {
			cur = next
			continue
		}
		if next.Depth() == cur.Depth() && next.Size() < cur.Size() {
			cur = next
		}
		break
	}
	return cur
}

// recoverSize is slack-aware size recovery at constant depth: iterated
// EliminatePassBudget with the depth at entry as the budget, accepted while
// it strictly shrinks the graph without exceeding the budget.
func recoverSize(m *MIG, window, iters int) *MIG {
	cur := m
	budget := cur.Depth()
	for i := 0; i < iters; i++ {
		sz := cur.EliminatePassBudget(window, budget)
		if sz.Depth() <= budget && sz.Size() < cur.Size() {
			cur = sz
			continue
		}
		break
	}
	return cur
}

// improveActivity iterates ActivityPass while switching activity strictly
// improves at non-increasing size, at most iters times.
func improveActivity(m *MIG, iters int, inputProbs []float64) *MIG {
	best := m
	for i := 0; i < iters; i++ {
		cur := best.ActivityPass(inputProbs)
		if cur.Activity(inputProbs) < best.Activity(inputProbs) && cur.Size() <= best.Size() {
			best = cur
		} else {
			break
		}
	}
	return best
}

// Unexported pass constructors shared by the registry and the canned
// pipelines.

func passCleanup() opt.Pass[*MIG] {
	return opt.New("cleanup", func(m *MIG) *MIG { return m.Cleanup() })
}

func passEliminate(window int) opt.Pass[*MIG] {
	return opt.New("eliminate", func(m *MIG) *MIG { return m.EliminatePass(window) })
}

func passEliminateBudget(window, iters int) opt.Pass[*MIG] {
	return opt.New("eliminate-budget", func(m *MIG) *MIG { return recoverSize(m, window, iters) })
}

func passReshape(window int, aggressive bool) opt.Pass[*MIG] {
	name := "reshape-size"
	if aggressive {
		name = "reshape-depth"
	}
	return opt.New(name, func(m *MIG) *MIG { return m.ReshapePass(window, aggressive) })
}

func passPushup(iters int) opt.Pass[*MIG] {
	return opt.New("pushup", func(m *MIG) *MIG { return pushUpToConvergence(m, iters) })
}

func passActivity(iters int, inputProbs []float64) opt.Pass[*MIG] {
	return opt.New("activity", func(m *MIG) *MIG { return improveActivity(m, iters, inputProbs) })
}

// passActivityRecover is the flow's final activity phase: one ActivityPass,
// kept only when it worsens neither depth nor size.
func passActivityRecover(inputProbs []float64) opt.Pass[*MIG] {
	return opt.New("activity-recover", func(m *MIG) *MIG {
		act := m.ActivityPass(inputProbs)
		if act.Depth() <= m.Depth() && act.Size() <= m.Size() {
			return act
		}
		return m
	})
}

func passCutRewrite() opt.Pass[*MIG] {
	return opt.New("cut-rewrite", func(m *MIG) *MIG { return m.RewritePass().Cleanup() })
}

// passWindowRewrite is cut rewriting with candidate evaluation fanned out
// over the context's worker budget. Deterministic: the result is
// byte-identical for any worker count; context cancellation aborts the
// pass without committing.
func passWindowRewrite(k, maxCuts int) opt.Pass[*MIG] {
	return opt.Pass[*MIG]{Name: "window-rewrite", Apply: func(ctx context.Context, m *MIG) (*MIG, error) {
		out, err := m.WindowRewritePass(ctx, k, maxCuts)
		if err != nil {
			return m, err
		}
		return out.Cleanup(), nil
	}}
}

// passRewriteNPN is exact NPN-database cut rewriting (npn.go) with
// candidate evaluation fanned over the context's worker budget,
// byte-identical for any worker count.
func passRewriteNPN(k, maxCuts int) opt.Pass[*MIG] {
	return opt.Pass[*MIG]{Name: "rewrite-npn", Apply: func(ctx context.Context, m *MIG) (*MIG, error) {
		out, err := m.NPNRewritePass(ctx, k, maxCuts)
		if err != nil {
			return m, err
		}
		return out.Cleanup(), nil
	}}
}

// passFraig is simulation-guided SAT sweeping (fraig.go) with candidate
// pairs fanned over the context's worker budget. Deterministic for any
// worker count; never increases size; context cancellation interrupts the
// SAT queries without committing.
func passFraig(words, rounds, conflicts int) opt.Pass[*MIG] {
	return opt.Pass[*MIG]{Name: "fraig", Apply: func(ctx context.Context, m *MIG) (*MIG, error) {
		return m.FraigPass(ctx, words, rounds, int64(conflicts))
	}}
}

// sizeBest is the Algorithm 1 cycle: eliminate–reshape–eliminate, iterated
// over the effort, alternating conservative and aggressive reshaping, best
// result by (size, depth).
func sizeBest(effort int) opt.Pass[*MIG] {
	return opt.Best("alg1-size", effort, betterBySizeDepth, func(cycle int) []opt.Pass[*MIG] {
		return []opt.Pass[*MIG]{
			passEliminate(3),
			passReshape(3, cycle%2 == 1),
			passEliminate(3),
		}
	})
}

// depthBest is the Algorithm 2 cycle: push-up–reshape–eliminate–push-up,
// iterated over the effort, best result by (depth, size).
func depthBest(effort int) opt.Pass[*MIG] {
	return opt.Best("alg2-depth", effort, betterByDepthSize, func(cycle int) []opt.Pass[*MIG] {
		return []opt.Pass[*MIG]{
			passPushup(64),
			passReshape(3, cycle%2 == 1),
			passEliminate(3),
			passPushup(64),
		}
	})
}

// SizePipeline returns Algorithm 1 (size optimization) as a pipeline.
func SizePipeline(effort int) *opt.Pipeline[*MIG] {
	return &opt.Pipeline[*MIG]{Passes: []opt.Pass[*MIG]{passCleanup(), sizeBest(effort)}}
}

// DepthPipeline returns Algorithm 2 (depth optimization) as a pipeline.
func DepthPipeline(effort int) *opt.Pipeline[*MIG] {
	return &opt.Pipeline[*MIG]{Passes: []opt.Pass[*MIG]{passCleanup(), depthBest(effort)}}
}

// FlowPipeline returns the paper's experimental flow (§V.A): depth
// optimization, slack-aware size recovery at constant depth, guarded
// activity recovery, and a final push-up.
func FlowPipeline(effort int) *opt.Pipeline[*MIG] {
	return &opt.Pipeline[*MIG]{Passes: []opt.Pass[*MIG]{
		passCleanup(),
		depthBest(effort),
		passEliminateBudget(3, 8),
		passActivityRecover(nil),
		passPushup(64),
	}}
}

// ActivityPipeline returns the §IV.C activity flow: size optimization, then
// iterated probability-aware relevance exchanges under the given input
// probability profile (nil = uniform 0.5).
func ActivityPipeline(effort int, inputProbs []float64) *opt.Pipeline[*MIG] {
	return &opt.Pipeline[*MIG]{Passes: []opt.Pass[*MIG]{
		passCleanup(),
		sizeBest(effort),
		passActivity(effort, inputProbs),
	}}
}

// registry is built once; Passes exposes it to the script front-end.
var registry = buildRegistry()

// Passes returns the registry of named MIG passes available to pass
// scripts (mighty -script).
func Passes() *opt.Registry[*MIG] { return registry }

// ParseScript compiles a pass script (e.g. "eliminate(8); reshape-depth;
// eliminate") against the MIG pass registry.
func ParseScript(script string) (*opt.Pipeline[*MIG], error) {
	return opt.Parse(registry, script)
}

// maxCutBudget is the largest cuts argument the cut-rewriting passes
// accept. Cut enumeration runs before a pass's workers start and does not
// check the context, so an unbounded budget would let a script outlast
// any request deadline. On C1355 (2-core container), CutSet(6, 512) keeps
// 17,643 cuts in ~146 ms, against 3,160 cuts in ~5 ms at 8. Every shipped
// flow uses the default of 5.
const maxCutBudget = 64

func buildRegistry() *opt.Registry[*MIG] {
	r := opt.NewRegistry[*MIG]()
	r.Register("cleanup", "", "cleanup: drop dead nodes (topological rebuild)",
		func(args []int) (opt.Pass[*MIG], error) {
			if _, err := opt.IntArgs(args); err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passCleanup(), nil
		})
	r.Register("eliminate", "window", "eliminate(window=3): node elimination (Ω.M, Ω.D R→L, Ψ.R); window 0 disables Ψ.R",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 0, 3)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passEliminate(a[0]), nil
		})
	r.Register("eliminate-budget", "window,iters", "eliminate-budget(window=3, iters=8): slack-aware size recovery at constant depth",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 1, 3, 8)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passEliminateBudget(a[0], a[1]), nil
		})
	r.Register("reshape-size", "window", "reshape-size(window=3): conservative sharing-increasing Ψ.R exchanges",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 1, 3)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passReshape(a[0], false), nil
		})
	r.Register("reshape-depth", "window", "reshape-depth(window=3): aggressive reshape (Ψ.R plus Ψ.S on critical cones)",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 1, 3)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passReshape(a[0], true), nil
		})
	r.Register("pushup", "iters", "pushup(iters=64): critical-path push-up (Ω.A, Ψ.C, Ω.D L→R) to convergence",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 1, 64)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passPushup(a[0]), nil
		})
	r.Register("activity", "iters", "activity(iters=1): probability-aware relevance exchanges while activity improves",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 1, 1)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passActivity(a[0], nil), nil
		})
	r.Register("cut-rewrite", "", "cut-rewrite: 4-input cut functional rewriting",
		func(args []int) (opt.Pass[*MIG], error) {
			if _, err := opt.IntArgs(args); err != nil {
				return opt.Pass[*MIG]{}, err
			}
			return passCutRewrite(), nil
		})
	r.Register("fraig", "words,rounds,conflicts", "fraig(words=4, rounds=2, conflicts=2000): simulation-guided SAT sweeping — merge SAT-proven equivalent nodes (workers = -jobs); never increases size",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 1, 4, 2, 2000)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			if a[0] > sweep.MaxWords {
				return opt.Pass[*MIG]{}, fmt.Errorf("fraig: %d simulation words exceed the bound of %d", a[0], sweep.MaxWords)
			}
			return passFraig(a[0], a[1], a[2]), nil
		})
	r.Register("rewrite-npn", "k,cuts", "rewrite-npn(k=4, cuts=5): exact NPN-class cut rewriting — replace cuts with SAT-proven size-optimal database implementations when they beat the heuristic (workers = -jobs); byte-identical to serial",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgs(args, 4, 5)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			if a[0] < 2 || a[0] > 4 {
				return opt.Pass[*MIG]{}, fmt.Errorf("rewrite-npn: cut size %d outside the database arity range [2,4]", a[0])
			}
			if a[1] < 1 || a[1] > maxCutBudget {
				return opt.Pass[*MIG]{}, fmt.Errorf("rewrite-npn: cut budget %d outside [1,%d]", a[1], maxCutBudget)
			}
			return passRewriteNPN(a[0], a[1]), nil
		})
	r.Register("window-rewrite", "k,cuts", "window-rewrite(k=4, cuts=5): cut rewriting with window-parallel candidate evaluation (workers = -jobs); byte-identical to serial",
		func(args []int) (opt.Pass[*MIG], error) {
			a, err := opt.IntArgsMin(args, 2, 4, 5)
			if err != nil {
				return opt.Pass[*MIG]{}, err
			}
			if a[0] > 6 {
				return opt.Pass[*MIG]{}, fmt.Errorf("window-rewrite: cut size %d exceeds the word-level synthesis bound of 6", a[0])
			}
			if a[1] > maxCutBudget {
				return opt.Pass[*MIG]{}, fmt.Errorf("window-rewrite: cut budget %d exceeds the bound of %d", a[1], maxCutBudget)
			}
			return passWindowRewrite(a[0], a[1]), nil
		})
	return r
}
