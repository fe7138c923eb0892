package bench

// The benchmark-suite evaluator behind the script tuner (logic/script):
// migbench -tune searches pass-script space scored on the MCNC circuits
// through this adapter. Kept here so the tuner itself stays
// evaluator-agnostic and dependency-light.

import (
	"context"
	"sync"

	"repro/internal/mig"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/logic"
	"repro/logic/script"
)

// ScriptEvaluator returns a script.Evaluator backed by the benchmark
// suite: circuit names resolve through Circuit (parsed once and cached per
// evaluator), and scripts run as MIG pipelines under the caller's context,
// so a tuning budget interrupts long passes promptly. Their parallel-safe
// passes get a budget of workers (0 or 1 = serial).
func ScriptEvaluator(workers int) script.Evaluator {
	var mu sync.Mutex
	cache := map[string]*netlist.Network{}
	return func(ctx context.Context, name, s string) (script.Metrics, error) {
		mu.Lock()
		n, ok := cache[name]
		mu.Unlock()
		if !ok {
			c, err := Circuit(name)
			if err != nil {
				return script.Metrics{}, err
			}
			n = logic.Flat(c)
			mu.Lock()
			cache[name] = n
			mu.Unlock()
		}
		p, err := mig.ParseScript(s)
		if err != nil {
			return script.Metrics{}, err
		}
		out, _, err := p.Run(opt.ContextWithWorkers(ctx, workers), mig.FromNetwork(n))
		if err != nil {
			return script.Metrics{}, err
		}
		return script.Metrics{Size: out.Size(), Depth: out.Depth()}, nil
	}
}
