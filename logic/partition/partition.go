// Package partition exposes the k-way partitioning engine over the public
// Network interface: deterministic multilevel hypergraph cuts, window
// extraction, and the full partitioned mixed MIG/AIG synthesis run.
//
// The partitioner is deterministic by contract — a fixed Options.Seed
// yields the same cut on the same network in every process — and
// Optimize's output is byte-identical for any worker count. For the
// session-integrated form of the same engine, see logic.WithPartitions;
// for the scriptable form, the registered "partition(k, effort)" pass.
package partition

import (
	"context"

	"repro/internal/flow"
	"repro/internal/part"
	"repro/logic"
)

// MaxK bounds the partition count.
const MaxK = part.MaxK

// Options configures a cut.
type Options struct {
	// K is the requested partition count (0 = the default 4). It is
	// clamped down on small networks so parts stay worth optimizing.
	K int
	// Seed fixes the partitioner's randomized choices; equal seeds give
	// equal cuts.
	Seed uint64
	// Eps is the balance slack: no part exceeds (1+Eps)×(total/K) gates.
	// Zero means the 0.10 default.
	Eps float64
}

// Result is a partitioning of a network's gates.
type Result struct {
	// K is the effective partition count.
	K int `json:"k"`
	// Cut is the (λ-1) connectivity of the cut: for every hyperedge, the
	// number of parts it spans beyond the first.
	Cut int64 `json:"cut"`
	// Parts counts the gates assigned to each partition.
	Parts []int `json:"parts"`

	inner *part.Result
}

// Cut partitions the network's gates into k balanced parts along a
// minimized hyperedge cut and reports the result. The input network is not
// modified.
func Cut(n logic.Network, opts Options) (*Result, error) {
	r, err := part.Partition(logic.Flat(n), part.Options{K: opts.K, Seed: opts.Seed, Eps: opts.Eps})
	if err != nil {
		return nil, err
	}
	return &Result{K: r.K, Cut: r.Cut, Parts: r.Parts, inner: r}, nil
}

// Window is one partition lifted into a self-contained sub-network whose
// boundary signals became primary inputs and outputs.
type Window struct {
	// Part is the partition index the window came from.
	Part int
	// Net is the lifted sub-network.
	Net *logic.Netlist
}

// Windows lifts every non-empty partition of a Cut result into a
// self-contained sub-network, in partition order. Each window can be
// optimized (or inspected) independently.
func Windows(n logic.Network, r *Result) ([]Window, error) {
	if r == nil || r.inner == nil {
		var err error
		if r, err = Cut(n, Options{}); err != nil {
			return nil, err
		}
	}
	ws := part.Windows(logic.Flat(n), r.inner)
	out := make([]Window, len(ws))
	for i, w := range ws {
		out[i] = Window{Part: w.Part, Net: logic.FromNetlist(w.Net)}
	}
	return out, nil
}

// Config configures a partitioned optimization run. Zero flow fields take
// the flow defaults of internal/flow: objective "flow", effort 3, AIG
// rounds 2.
type Config struct {
	// K is the requested partition count (0 = 4); Seed and Eps as in
	// Options.
	K    int
	Seed uint64
	Eps  float64
	// Workers caps the window-parallel worker pool (0 = the process-wide
	// budget). Results are byte-identical for any value.
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
	report := &logic.PartitionReport{
		K:                rep.K,
		Cut:              rep.Cut,
		PartitionSeconds: rep.PartitionSeconds,
		StitchSeconds:    rep.StitchSeconds,
	}
	for _, p := range rep.Parts {
		report.Parts = append(report.Parts, logic.PartitionStat{
			Part:        p.Part,
			Gates:       p.Gates,
			Inputs:      p.Inputs,
			Outputs:     p.Outputs,
			Rep:         p.Rep,
			SizeBefore:  p.SizeBefore,
			SizeAfter:   p.SizeAfter,
			DepthBefore: p.DepthBefore,
			DepthAfter:  p.DepthAfter,
			Seconds:     p.Seconds,
		})
	}
	return logic.FromNetlist(out), report, nil
}
