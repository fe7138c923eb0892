// Package partition runs the k-way partitioned synthesis engine over the
// public Network interface: Optimize cuts the network with a deterministic
// multilevel hypergraph partitioner, optimizes every window under both a
// MIG and an AIG flow in parallel, and stitches the per-objective winners
// back together. Its output is byte-identical for any worker count.
//
// Optimize is the engine's only entry point; docs/PARTITION.md records why
// the Session option, the scriptable pass and the CLI and service
// surfaces were removed.
package partition

import (
	"context"

	"repro/internal/flow"
	"repro/internal/part"
	"repro/logic"
)

// Config configures a partitioned optimization run. Zero flow fields take
// the flow defaults of internal/flow: objective "flow", effort 3, AIG
// rounds 2.
type Config struct {
	// K is the requested partition count (0 = 4). It is clamped down on
	// small networks so parts stay worth optimizing.
	K int
	// Seed fixes the partitioner's randomized choices; equal seeds give
	// equal cuts.
	Seed uint64
	// Eps is the balance slack: no part exceeds (1+Eps)×(total/K) gates.
	// Zero means the 0.10 default.
	Eps float64
	// Workers caps the window-parallel worker pool (0 = the budget of the
	// context Optimize is called with, 1 when it carries none). Results
	// are byte-identical for any value.
	Workers int
	// Effort is the canned-flow effort of the MIG candidate (0 = 3).
	Effort int
	// AIGRounds is the resyn2 iteration count of the AIG candidate flow
	// (0 = 2).
	AIGRounds int
	// Objective scores the MIG-vs-AIG duel and selects the canned MIG
	// flow: "size", "depth", "activity", "flow" (default) or "none". Any
	// other name is an error.
	Objective string
	// MIGScript replaces the canned MIG candidate flow; the AIG candidate
	// keeps the resyn2 baseline.
	MIGScript string
}

// Optimize partitions the network, optimizes every window under both a MIG
// and an AIG flow in parallel, and stitches the per-objective winners back
// into a functionally equivalent whole. Equal inputs and Config produce a
// byte-identical network for any worker count.
//
// A context observer (logic.ContextWithObserver) receives, in window
// order, the winning flow's steps of every window, named
// "p<part>/<rep>:<pass>" with rep "mig" or "aig", and then one "stitch"
// step.
func Optimize(ctx context.Context, n logic.Network, cfg Config) (*logic.Netlist, *logic.PartitionReport, error) {
	out, rep, err := part.Optimize(ctx, logic.Flat(n), part.Config{
		K:       cfg.K,
		Seed:    cfg.Seed,
		Eps:     cfg.Eps,
		Workers: cfg.Workers,
		Flow: flow.Spec{
			Objective: cfg.Objective,
			Effort:    cfg.Effort,
			AIGRounds: cfg.AIGRounds,
			Script:    cfg.MIGScript,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return logic.FromNetlist(out), rep, nil
}
