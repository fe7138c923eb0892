package bench

// The paper's in-text large-scale experiment: MIG vs AIG optimization of a
// compression-function circuit (~0.3M nodes at the paper's size). Moved
// out of the migbench CLI so the experiment is callable through the public
// API.

import (
	"sync"

	"repro/internal/netlist"
	"repro/logic"
)

// RunCompress measures the compression-circuit experiment at the given
// word count: the MIG and AIG flows (concurrently when cfg.Workers > 1),
// with cfg's optional verification. The returned network is the
// unoptimized circuit (for its stats).
func RunCompress(words int, cfg Config) (OptRow, *logic.Netlist) {
	cfg.Defaults()
	wrapped := Compress(words)
	n := logic.Flat(wrapped)
	row := OptRow{Name: n.Name, Inputs: n.NumInputs(), Outputs: n.NumOutputs()}

	var mm, am OptMetrics
	var mg interface{ ToNetwork() *netlist.Network }
	var ag interface{ ToNetwork() *netlist.Network }
	if cfg.Workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ag, am = AIGOptimize(n, cfg)
		}()
		mg, mm = MIGOptimize(n, cfg)
		wg.Wait()
	} else {
		mg, mm = MIGOptimize(n, cfg)
		ag, am = AIGOptimize(n, cfg)
	}
	row.MIG, row.AIG = mm, am

	if cfg.VerifyEngine != "" {
		var labels []string
		var nets []*netlist.Network
		if mm.OK {
			labels, nets = append(labels, "mig"), append(nets, mg.ToNetwork())
		}
		if am.OK {
			labels, nets = append(labels, "aig"), append(nets, ag.ToNetwork())
		}
		row.VerifyErr, row.VerifyMS, row.Conflicts, row.SolverRestarts = VerifyNetworks(n, cfg, labels, nets)
	}
	return row, wrapped
}
