package aig

// Pass registry and canned pipelines over the AIG, mirroring the MIG side
// (internal/mig/passes.go) on the generic pass engine (internal/opt). The
// resyn2 recipe becomes a pipeline of registered balance/rewrite/refactor
// passes, and any other composition can be scripted.

import (
	"context"
	"fmt"

	"repro/internal/opt"
	"repro/internal/sweep"
)

func betterBySizeDepth(cand, best *AIG) bool {
	return cand.Size() < best.Size() || (cand.Size() == best.Size() && cand.Depth() < best.Depth())
}

func passCleanup() opt.Pass[*AIG] {
	return opt.New("cleanup", func(a *AIG) *AIG { return a.Cleanup() })
}

func passBalance() opt.Pass[*AIG] {
	return opt.New("balance", func(a *AIG) *AIG { return a.Balance() })
}

func passRewrite() opt.Pass[*AIG] {
	return opt.New("rewrite", func(a *AIG) *AIG { return a.Rewrite().Cleanup() })
}

func passRefactor() opt.Pass[*AIG] {
	return opt.New("refactor", func(a *AIG) *AIG { return a.Refactor().Cleanup() })
}

// passFraig is simulation-guided SAT sweeping (fraig.go), candidate pairs
// fanned over the context's worker budget; deterministic for any worker
// count and never size-increasing. Context cancellation interrupts the SAT
// queries without committing.
func passFraig(words, rounds, conflicts int) opt.Pass[*AIG] {
	return opt.Pass[*AIG]{Name: "fraig", Apply: func(ctx context.Context, a *AIG) (*AIG, error) {
		return a.FraigPass(ctx, words, rounds, int64(conflicts))
	}}
}

// resyn2Best is one ABC-style resyn2 recipe iterated over rounds, best
// result by (size, depth).
func resyn2Best(rounds int) opt.Pass[*AIG] {
	return opt.Best("resyn2", rounds, betterBySizeDepth, func(cycle int) []opt.Pass[*AIG] {
		return []opt.Pass[*AIG]{
			passBalance(),
			passRewrite(),
			passRefactor(),
			passBalance(),
			passRewrite(),
		}
	})
}

// Resyn2Pipeline returns the resyn2 script as a pipeline.
func Resyn2Pipeline(rounds int) *opt.Pipeline[*AIG] {
	return &opt.Pipeline[*AIG]{Passes: []opt.Pass[*AIG]{passCleanup(), resyn2Best(rounds)}}
}

var registry = buildRegistry()

// Passes returns the registry of named AIG passes available to pass
// scripts.
func Passes() *opt.Registry[*AIG] { return registry }

// ParseScript compiles a pass script (e.g. "balance; rewrite; refactor")
// against the AIG pass registry.
func ParseScript(script string) (*opt.Pipeline[*AIG], error) {
	return opt.Parse(registry, script)
}

func buildRegistry() *opt.Registry[*AIG] {
	r := opt.NewRegistry[*AIG]()
	r.Register("cleanup", "", "cleanup: drop dead nodes (topological rebuild)",
		func(args []int) (opt.Pass[*AIG], error) {
			if _, err := opt.IntArgs(args); err != nil {
				return opt.Pass[*AIG]{}, err
			}
			return passCleanup(), nil
		})
	r.Register("balance", "", "balance: rebuild AND trees at minimum depth",
		func(args []int) (opt.Pass[*AIG], error) {
			if _, err := opt.IntArgs(args); err != nil {
				return opt.Pass[*AIG]{}, err
			}
			return passBalance(), nil
		})
	r.Register("rewrite", "", "rewrite: DAG-aware 4-input cut rewriting",
		func(args []int) (opt.Pass[*AIG], error) {
			if _, err := opt.IntArgs(args); err != nil {
				return opt.Pass[*AIG]{}, err
			}
			return passRewrite(), nil
		})
	r.Register("refactor", "", "refactor: cone refactoring through factored SOP (cuts of up to 10 leaves, the 2 smallest per node)",
		func(args []int) (opt.Pass[*AIG], error) {
			if _, err := opt.IntArgs(args); err != nil {
				return opt.Pass[*AIG]{}, err
			}
			return passRefactor(), nil
		})
	r.Register("fraig", "words,rounds,conflicts", "fraig(words=4, rounds=2, conflicts=2000): simulation-guided SAT sweeping — merge SAT-proven equivalent nodes (workers = -jobs); never increases size",
		func(args []int) (opt.Pass[*AIG], error) {
			a, err := opt.IntArgsMin(args, 1, 4, 2, 2000)
			if err != nil {
				return opt.Pass[*AIG]{}, err
			}
			if a[0] > sweep.MaxWords {
				return opt.Pass[*AIG]{}, fmt.Errorf("fraig: %d simulation words exceed the bound of %d", a[0], sweep.MaxWords)
			}
			return passFraig(a[0], a[1], a[2]), nil
		})
	return r
}
