// Package bench composes the repository's engines into the three flows the
// paper evaluates:
//
//   - the MIG flow (the paper's contribution): MIG construction + the §IV
//     depth optimization interlaced with size/activity recovery, then
//     technology mapping;
//   - the AIG flow (academic baseline, ABC stand-in): resyn2-style
//     balance/rewrite/refactor, then the same mapper;
//   - the CST flow (commercial stand-in): a SOP-heavy SIS-style script
//     (refactoring through minimized factored covers), then the same mapper.
//
// plus the BDS logic-optimization baseline (BDD decomposition) used in
// Table I-top. Each flow returns the measured metrics in the same units the
// paper reports.
package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/aig"
	"repro/internal/bdd"
	"repro/internal/flow"
	"repro/internal/mapping"
	"repro/internal/mig"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/logic"
)

// OptMetrics are the Table I-top columns for one representation.
type OptMetrics struct {
	Size     int     `json:"size"`
	Depth    int     `json:"depth"`
	Activity float64 `json:"activity"`
	Seconds  float64 `json:"seconds"`
	OK       bool    `json:"ok"` // false = N.A.: the leg failed (BDS only when every candidate does)
	// Trace is the MIG or AIG leg's per-pass record (nil for BDS). It
	// stays out of the JSON, so checked-in baselines stay byte-compatible.
	Trace logic.Trace `json:"-"`
}

// flowSpec is the flow the two legs resolve: the paper's §V.A flow on the
// MIG side and resyn2 plus a final balance on the AIG side, with cfg's
// appends. cfg.MIGScript replaces only the MIG leg's flow.
func (c Config) flowSpec() flow.Spec {
	return flow.Spec{Effort: c.Effort, AIGRounds: c.AIGRounds, Fraig: c.Fraig, NPN: c.NPN}
}

// passContext is the context both legs' pipelines run under: it carries
// c.Workers as the budget of the parallel-safe passes.
func (c Config) passContext() context.Context {
	return opt.ContextWithWorkers(context.Background(), c.Workers)
}

// MIGOptimize runs the MIG leg on a netlist: the paper's
// logic-optimization flow, depth optimization interlaced with size and
// activity recovery (§V.A), with the exact NPN rewriting (cfg.NPN) and
// SAT-sweeping (cfg.Fraig) passes appended. A pass script
// (cfg.MIGScript, migbench -mig-script) replaces the canned flow, so
// experimental pipelines — window-parallel rewriting and SAT sweeping in
// particular — can be benchmarked through the standard experiment
// harness. A script failure is reported on stderr (the row only carries
// OK=false) so a broken script is diagnosable from the run log.
func MIGOptimize(n *netlist.Network, cfg Config) (*mig.MIG, OptMetrics) {
	spec := cfg.flowSpec()
	spec.Script = cfg.MIGScript
	p, err := spec.MIG()
	if err != nil {
		fmt.Fprintf(os.Stderr, "synth: %s: bad MIG script: %v\n", n.Name, err)
		return nil, OptMetrics{OK: false}
	}
	start := time.Now()
	res, tr, err := p.Run(cfg.passContext(), mig.FromNetwork(n))
	if err != nil {
		fmt.Fprintf(os.Stderr, "synth: %s: MIG script failed: %v\n", n.Name, err)
		return nil, OptMetrics{OK: false}
	}
	return res, legMetrics(res, tr, start)
}

// AIGOptimize runs the AIG leg, the ABC-style baseline: the resyn2 script
// plus a final balance for depth, with cfg.Fraig's SAT sweeping appended.
func AIGOptimize(n *netlist.Network, cfg Config) (*aig.AIG, OptMetrics) {
	p, err := cfg.flowSpec().AIG()
	if err != nil {
		return nil, OptMetrics{OK: false}
	}
	start := time.Now()
	res, tr, err := p.Run(cfg.passContext(), aig.FromNetwork(n))
	if err != nil {
		return nil, OptMetrics{OK: false}
	}
	return res, legMetrics(res, tr, start)
}

// legMetrics packages a leg's result metrics with the elapsed wall time
// and its per-pass trace.
func legMetrics(g opt.Graph, tr logic.Trace, start time.Time) OptMetrics {
	return OptMetrics{
		Size:     g.Size(),
		Depth:    g.Depth(),
		Activity: g.Activity(nil),
		Seconds:  time.Since(start).Seconds(),
		OK:       true,
		Trace:    tr,
	}
}

// bdsBudgetFactor scales the windowed candidate's gate count W into the
// node budget of BDSOptimize's global builds. On the MCNC stand-ins the two
// global winners' BDDs need 1.9·W (bigkey) and 1.6·W (count) nodes, and
// count's decomposition adds enough complement nodes to overflow 2·W;
// every losing build needs at least 2.8·W or overflows.
const bdsBudgetFactor = 4

// bdsLimit is Table I's cap on the global BDD node budget.
const bdsLimit = 1 << 18

// BDSOptimize runs the BDS-style baseline and keeps the smallest of three
// candidates. The windowed (cone-partitioned) decomposition runs first, and
// its cleaned gate count W sets the node budget of the two global
// candidates, min(globalLimit, 4·W + 2 + NumInputs): the last terms are the
// two leaves and one projection node per input that a build holds before
// it has any gate. The global candidates build BDDs in the static DFS order
// (sifted up to 16 inputs) and in the declaration order and decompose them
// at dominators, all within the budget, so a global BDD that needs more
// nodes than the budget cannot win even when it fits under globalLimit.
// The declaration order replaces the DFS order only when it has strictly
// fewer gates, and the windowed result replaces a global one only when it
// is strictly smaller after cleanup. If the windowed decomposition fails,
// the global builds get all of globalLimit; if every candidate fails, the
// result is OK=false (N.A.).
func BDSOptimize(n *netlist.Network, globalLimit int) (*netlist.Network, OptMetrics) {
	start := time.Now()
	limit := globalLimit
	win, winErr := windowedBDS(n, 8)
	if winErr == nil {
		win = win.Clean()
		limit = min(limit, bdsBudgetFactor*win.NumGates()+2+n.NumInputs())
	}
	var order []int
	if n.NumInputs() <= 16 {
		order = bdd.SiftOrder(n, limit, 16)
	}
	dec, err := bdd.DecomposeNetworkOrdered(n, limit, order)
	if plain, err2 := bdd.DecomposeNetwork(n, limit); err2 == nil {
		if err != nil || plain.NumGates() < dec.NumGates() {
			dec, err = plain, nil
		}
	}
	if err == nil {
		dec = dec.Clean()
	}
	if winErr == nil && (err != nil || win.NumGates() < dec.NumGates()) {
		dec, err = win, nil
	}
	if err != nil {
		return nil, OptMetrics{OK: false}
	}
	return dec, OptMetrics{
		Size:     dec.NumGates(),
		Depth:    dec.Depth(),
		Activity: power.Activity(dec, nil),
		Seconds:  time.Since(start).Seconds(),
		OK:       true,
	}
}

// windowedBDS partitions the circuit into k-feasible cones (computed on an
// AIG view), builds a small BDD per cone, and decomposes each cone
// independently — the partitioned mode large circuits need.
func windowedBDS(n *netlist.Network, k int) (*netlist.Network, error) {
	// a is not modified below, so the cut views stay valid throughout.
	a := aig.FromNetwork(n)
	cuts := a.CutSet(k, 4)
	out := netlist.New(n.Name)
	// One manager serves every cone, reset in between: a cone has at most
	// k variables.
	man := bdd.NewManager(k, 1<<16)

	// mapped[i] is the signal of AIG node i's decomposed implementation,
	// or unmapped until it is built.
	const unmapped = ^netlist.Signal(0)
	mapped := make([]netlist.Signal, a.NumNodes())
	for i := range mapped {
		mapped[i] = unmapped
	}
	mapped[0] = netlist.SigConst0
	for i := 0; i < a.NumInputs(); i++ {
		mapped[a.Input(i).Node()] = out.AddInput(a.InputName(i))
	}

	// chooseCut picks the widest non-trivial cut (fewest recursions), or
	// nil when the node has none.
	chooseCut := func(node int) []int32 {
		var best []int32
		for j := 0; j < cuts.NumCuts(node); j++ {
			c := cuts.Leaves(node, j)
			if len(c) == 1 && int(c[0]) == node {
				continue
			}
			if len(best) <= 1 || len(c) > len(best) {
				best = c
			}
		}
		return best
	}

	var build func(node int) (netlist.Signal, error)
	build = func(node int) (netlist.Signal, error) {
		if s := mapped[node]; s != unmapped {
			return s, nil
		}
		cut := chooseCut(node)
		if cut == nil {
			// No usable cut (shouldn't happen for AND nodes): decompose
			// structurally.
			f := a.Fanins(node)
			s0, err := build(f[0].Node())
			if err != nil {
				return 0, err
			}
			s1, err := build(f[1].Node())
			if err != nil {
				return 0, err
			}
			s := out.AddGate(netlist.And, s0.NotIf(f[0].Neg()), s1.NotIf(f[1].Neg()))
			mapped[node] = s
			return s, nil
		}
		leafSigs := make([]netlist.Signal, len(cut))
		for i, l := range cut {
			s, err := build(int(l))
			if err != nil {
				return 0, err
			}
			leafSigs[i] = s
		}
		man.Reset()
		root, err := man.FromTT(a.CutFunction(node, cut))
		if err != nil {
			return 0, err
		}
		sigs, err := man.DecomposeInto(out, []bdd.Ref{root}, leafSigs)
		if err != nil {
			return 0, err
		}
		mapped[node] = sigs[0]
		return sigs[0], nil
	}

	for _, o := range a.Outputs {
		s, err := build(o.Sig.Node())
		if err != nil {
			return nil, err
		}
		out.AddOutput(o.Name, s.NotIf(o.Sig.Neg()))
	}
	return out, nil
}

// SynthResult is one Table I-bottom entry.
type SynthResult struct {
	Area    float64 `json:"area"`
	Delay   float64 `json:"delay"`
	Power   float64 `json:"power"`
	Seconds float64 `json:"seconds"`
	OK      bool    `json:"ok"`
}

func fromMapping(r *mapping.Result, secs float64) SynthResult {
	return SynthResult{Area: r.Area, Delay: r.Delay, Power: r.Power, Seconds: secs, OK: true}
}

// MIGFlow is MIG optimization followed by technology mapping.
func MIGFlow(n logic.Network, effort int, lib *logic.Library) (SynthResult, *logic.MapResult) {
	return migFlow(logic.Flat(n), effort, lib)
}

func migFlow(n *netlist.Network, effort int, lib *mapping.Library) (SynthResult, *mapping.Result) {
	start := time.Now()
	m, _ := MIGOptimize(n, Config{Effort: effort})
	res := mapping.Map(m.ToNetwork(), lib, nil)
	return fromMapping(res, time.Since(start).Seconds()), res
}

// AIGFlow is the academic baseline: resyn2 + mapping.
func AIGFlow(n logic.Network, rounds int, lib *logic.Library) (SynthResult, *logic.MapResult) {
	return aigFlow(logic.Flat(n), rounds, lib)
}

func aigFlow(n *netlist.Network, rounds int, lib *mapping.Library) (SynthResult, *mapping.Result) {
	start := time.Now()
	a, _ := AIGOptimize(n, Config{AIGRounds: rounds})
	res := mapping.Map(a.ToNetwork(), lib, nil)
	return fromMapping(res, time.Since(start).Seconds()), res
}

// CSTOptPipeline is the commercial stand-in's SOP-oriented script (cone
// refactoring through minimized factored covers, twice, with balancing) as
// a pass pipeline.
func CSTOptPipeline() *opt.Pipeline[*aig.AIG] {
	r := aig.Passes()
	return &opt.Pipeline[*aig.AIG]{Passes: []opt.Pass[*aig.AIG]{
		r.MustNew("refactor"),
		r.MustNew("balance"),
		r.MustNew("refactor"),
		r.MustNew("rewrite"),
		r.MustNew("balance"),
	}}
}

// CSTFlow simulates the commercial tool: the CSTOptPipeline script and the
// same mapper. See internal/mcnc for the substitution rationale.
func CSTFlow(n logic.Network, lib *logic.Library) (SynthResult, *logic.MapResult) {
	return cstFlow(logic.Flat(n), lib)
}

func cstFlow(n *netlist.Network, lib *mapping.Library) (SynthResult, *mapping.Result) {
	start := time.Now()
	a, _, err := CSTOptPipeline().Run(context.Background(), aig.FromNetwork(n))
	if err != nil {
		return SynthResult{OK: false}, nil
	}
	res := mapping.Map(a.ToNetwork(), lib, nil)
	return fromMapping(res, time.Since(start).Seconds()), res
}

// MIGOptimizeNet runs just the MIG leg for one circuit through the public
// API (the effort-sweep experiment measures it in isolation).
func MIGOptimizeNet(n logic.Network, cfg Config) OptMetrics {
	cfg.Defaults()
	_, m := MIGOptimize(logic.Flat(n), cfg)
	return m
}
