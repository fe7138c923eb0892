package part

// The per-partition mixed-synthesis engine: every window is optimized
// under BOTH a MIG flow and an AIG flow on worker-private graphs, the two
// candidates are scored on their common netlist export under the run's
// objective, and the winner is committed. Windows run in parallel via
// opt.ForEach; everything order-sensitive (observer emission, stitch)
// happens serially afterwards in window order, so the result is
// byte-identical for any worker count.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aig"
	"repro/internal/flow"
	"repro/internal/mig"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/sweep"
)

// Config configures a partitioned optimization run. The zero value means
// k=4, the fixed default seed and the flow defaults of internal/flow.
type Config struct {
	// K is the requested partition count (clamped; see Options.K).
	K int
	// Seed fixes the partitioner's randomized choices.
	Seed uint64
	// Eps is the partitioner's balance slack (0 = the 0.10 default).
	Eps float64
	// Workers caps the window-parallel worker pool; 0 reads the context
	// budget (opt.WorkersCtx), which is 1 when the context carries none.
	Workers int
	// Flow configures both window candidates. The MIG candidate runs
	// Flow.MIG(); the AIG candidate runs the same spec without its script
	// (a script replaces only the MIG flow). The objective also scores
	// the MIG-vs-AIG duel ("none" skips the AIG candidate: there is
	// nothing to score).
	Flow flow.Spec
}

// PartStat reports one window's optimization. It is the public record
// logic.PartitionStat aliases.
type PartStat struct {
	Part    int `json:"part"`
	Gates   int `json:"gates"`
	Inputs  int `json:"inputs"`
	Outputs int `json:"outputs"`
	// Rep is the representation that won the window: "mig" or "aig".
	Rep string `json:"rep"`
	// Size/Depth are measured on the window's netlist export before and
	// after optimization (the common currency of the two candidates).
	SizeBefore  int     `json:"size_before"`
	SizeAfter   int     `json:"size_after"`
	DepthBefore int     `json:"depth_before"`
	DepthAfter  int     `json:"depth_after"`
	Seconds     float64 `json:"seconds"`
}

// Report describes one partitioned run. It is the public record
// logic.PartitionReport aliases.
type Report struct {
	// K is the effective partition count; Cut the (λ-1) connectivity of
	// the cut.
	K   int   `json:"k"`
	Cut int64 `json:"cut"`
	// Parts reports each non-empty window in partition order.
	Parts []PartStat `json:"parts"`
	// PartitionSeconds covers partitioning plus window extraction;
	// StitchSeconds the serial stitch-back.
	PartitionSeconds float64 `json:"partition_seconds"`
	StitchSeconds    float64 `json:"stitch_seconds"`
}

// winResult is one window's parallel-phase outcome.
type winResult struct {
	net   *netlist.Network
	stat  PartStat
	trace opt.Trace
	err   error
}

// Optimize partitions n, optimizes every window under both representations
// in parallel, stitches the per-objective winners back together and
// returns the result with its report. The output is deterministic: equal
// inputs and Config produce byte-identical networks for any worker count.
func Optimize(ctx context.Context, n *netlist.Network, cfg Config) (*netlist.Network, *Report, error) {
	if cfg.K <= 0 {
		cfg.K = 4
	}
	// Resolve the flow once, up front: an unknown objective or a script
	// error should fail the run before any parallel work starts.
	if _, err := cfg.Flow.MIG(); err != nil {
		return nil, nil, err
	}

	pstart := time.Now()
	res, err := Partition(n, Options{K: cfg.K, Seed: cfg.Seed, Eps: cfg.Eps})
	if err != nil {
		return nil, nil, err
	}
	windows := extractWindows(n, res.Assign, res.K)
	report := &Report{K: res.K, Cut: res.Cut, PartitionSeconds: time.Since(pstart).Seconds()}

	jobs := cfg.Workers
	if jobs <= 0 {
		jobs = opt.WorkersCtx(ctx)
	}
	results := make([]winResult, len(windows))
	if err := opt.ForEach(ctx, len(windows), jobs, func(i int) {
		results[i] = optimizeWindow(ctx, windows[i], cfg)
	}); err != nil {
		return nil, report, err
	}
	optimized := make([]*netlist.Network, len(windows))
	for i := range results {
		if results[i].err != nil {
			return nil, report, fmt.Errorf("part: window %d: %w", windows[i].Part, results[i].err)
		}
		optimized[i] = results[i].net
	}

	// Serial phase: re-emit the winning traces in window order (so the
	// observer stream is deterministic), then stitch.
	obs := opt.ObserverFrom(ctx)
	for i := range results {
		if obs != nil {
			prefix := fmt.Sprintf("p%d/", windows[i].Part)
			for _, st := range results[i].trace {
				st.Pass = prefix + st.Pass
				obs(st)
			}
		}
		report.Parts = append(report.Parts, results[i].stat)
	}
	sstart := time.Now()
	out, err := stitch(n, windows, optimized)
	if err != nil {
		return nil, report, err
	}
	report.StitchSeconds = time.Since(sstart).Seconds()
	if obs != nil {
		obs(opt.Step{
			Pass:        "stitch",
			SizeBefore:  n.NumGates(),
			SizeAfter:   out.NumGates(),
			DepthBefore: n.Depth(),
			DepthAfter:  out.Depth(),
			Seconds:     report.StitchSeconds,
		})
	}
	return out, report, nil
}

// optimizeWindow runs the MIG and AIG candidate flows on one window and
// commits the better export. The window's context shadows the parent's
// observer (steps are re-emitted serially later) and counterexample pool
// (sharing refutation patterns across concurrently-optimized windows
// would make results depend on scheduling), and pins the inner pass
// parallelism to 1 — parallelism lives at the window level here.
func optimizeWindow(ctx context.Context, w *Window, cfg Config) winResult {
	wctx := opt.ContextWithObserver(ctx, func(opt.Step) {})
	wctx = sweep.ContextWithPool(wctx, sweep.NewCexPool(0))
	wctx = opt.ContextWithWorkers(wctx, 1)
	start := time.Now()
	stat := PartStat{
		Part:        w.Part,
		Gates:       w.Net.NumGates(),
		Inputs:      w.Net.NumInputs(),
		Outputs:     w.Net.NumOutputs(),
		SizeBefore:  w.Net.NumGates(),
		DepthBefore: w.Net.Depth(),
	}

	migPipe, err := cfg.Flow.MIG()
	if err != nil {
		return winResult{err: err}
	}
	migOut, migTrace, err := migPipe.Run(wctx, mig.FromNetwork(w.Net.Remajorize()))
	if err != nil {
		return winResult{err: err}
	}
	migNet := migOut.ToNetwork()

	rep, net, trace := "mig", migNet, migTrace
	if cfg.Flow.Objective != "none" {
		aigFlow := cfg.Flow
		aigFlow.Script = ""
		aigPipe, err := aigFlow.AIG()
		if err != nil {
			return winResult{err: err}
		}
		aigOut, aigTrace, err := aigPipe.Run(wctx, aig.FromNetwork(w.Net))
		if err != nil {
			return winResult{err: err}
		}
		if aigNet := aigOut.ToNetwork(); betterNet(cfg.Flow.Objective, aigNet, migNet) {
			rep, net, trace = "aig", aigNet, aigTrace
		}
	}

	stat.Rep = rep
	stat.SizeAfter = net.NumGates()
	stat.DepthAfter = net.Depth()
	stat.Seconds = time.Since(start).Seconds()
	// Label every step of the winning flow with its representation.
	for i := range trace {
		trace[i].Pass = rep + ":" + trace[i].Pass
	}
	return winResult{net: net, stat: stat, trace: trace}
}

// betterNet reports whether candidate cand beats incumbent inc under the
// objective, on the common netlist export. Ties keep the incumbent (the
// MIG candidate — the paper's representation wins draws). "size" and
// "depth" are lexicographic on their metric; "flow" — the balanced
// depth-with-size-recovery recipe — scores by area-delay product, so a
// candidate that halves depth for a modest size premium (the MIG flow on
// carry chains) beats one that only packs gates, and vice versa on
// and/or-dominated control logic.
func betterNet(objective string, cand, inc *netlist.Network) bool {
	switch objective {
	case "size":
		cs, is := cand.NumGates(), inc.NumGates()
		return cs < is || (cs == is && cand.Depth() < inc.Depth())
	case "depth":
		cd, id := cand.Depth(), inc.Depth()
		return cd < id || (cd == id && cand.NumGates() < inc.NumGates())
	case "activity":
		ca, ia := power.Activity(cand, nil), power.Activity(inc, nil)
		return ca < ia || (ca == ia && cand.NumGates() < inc.NumGates())
	default: // "flow"
		cp := int64(cand.NumGates()) * int64(cand.Depth())
		ip := int64(inc.NumGates()) * int64(inc.Depth())
		return cp < ip || (cp == ip && cand.NumGates() < inc.NumGates())
	}
}
