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
	OK       bool    `json:"ok"` // false = N.A. (tool failure, like BDS on clma)
	// Trace is the per-pass record of the run, populated only when
	// Config.KeepTrace is set (omitted from JSON otherwise, so checked-in
	// baselines stay byte-compatible).
	Trace []PassStep `json:"trace,omitempty"`
}

// PassStep is one committed pipeline pass of an OptMetrics trace: the
// subset of the engine's step record the pass profiler aggregates.
type PassStep struct {
	Pass        string  `json:"pass"`
	Seconds     float64 `json:"seconds"`
	SizeBefore  int     `json:"size_before"`
	SizeAfter   int     `json:"size_after"`
	DepthBefore int     `json:"depth_before"`
	DepthAfter  int     `json:"depth_after"`
}

// flowSpec is the flow the two legs resolve: the paper's §V.A flow on the
// MIG side and resyn2 plus a final balance on the AIG side, with cfg's
// appends. cfg.MIGScript replaces only the MIG leg's flow.
func (c Config) flowSpec() flow.Spec {
	return flow.Spec{Effort: c.Effort, AIGRounds: c.AIGRounds, Fraig: c.Fraig, NPN: c.NPN}
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
	res, tr, err := p.Run(mig.FromNetwork(n))
	if err != nil {
		fmt.Fprintf(os.Stderr, "synth: %s: MIG script failed: %v\n", n.Name, err)
		return nil, OptMetrics{OK: false}
	}
	return res, legMetrics(res, tr, start, cfg.KeepTrace)
}

// AIGOptimize runs the AIG leg, the ABC-style baseline: the resyn2 script
// plus a final balance for depth, with cfg.Fraig's SAT sweeping appended.
func AIGOptimize(n *netlist.Network, cfg Config) (*aig.AIG, OptMetrics) {
	p, err := cfg.flowSpec().AIG()
	if err != nil {
		return nil, OptMetrics{OK: false}
	}
	start := time.Now()
	res, tr, err := p.Run(aig.FromNetwork(n))
	if err != nil {
		return nil, OptMetrics{OK: false}
	}
	return res, legMetrics(res, tr, start, cfg.KeepTrace)
}

// legMetrics packages a leg's result metrics with the elapsed wall time,
// and its per-pass trace when keepTrace is set.
func legMetrics(g opt.Graph, tr opt.Trace, start time.Time, keepTrace bool) OptMetrics {
	m := OptMetrics{
		Size:     g.Size(),
		Depth:    g.Depth(),
		Activity: g.Activity(nil),
		Seconds:  time.Since(start).Seconds(),
		OK:       true,
	}
	if keepTrace {
		m.Trace = passTrace(tr)
	}
	return m
}

// passTrace projects the engine trace onto the profiler's step records.
func passTrace(tr opt.Trace) []PassStep {
	steps := make([]PassStep, len(tr))
	for i, s := range tr {
		steps[i] = PassStep{
			Pass:        s.Pass,
			Seconds:     s.Seconds,
			SizeBefore:  s.SizeBefore,
			SizeAfter:   s.SizeAfter,
			DepthBefore: s.DepthBefore,
			DepthAfter:  s.DepthAfter,
		}
	}
	return steps
}

// BDSOptimize runs the BDS-style baseline: global BDD construction (with
// the static DFS variable order, falling back to the declaration order) and
// dominator decomposition, then windowed (cone-partitioned) decomposition
// when the global BDDs exceed the node limit. A windowed failure returns
// OK=false (reported as N.A., as the paper does for BDS on clma and the
// compression circuit).
func BDSOptimize(n *netlist.Network, globalLimit int) (*netlist.Network, OptMetrics) {
	start := time.Now()
	// Candidate 1: global BDDs with the static DFS order, upgraded to a
	// sifted order on small-input circuits (PLAs are where reordering
	// matters most).
	var order []int
	if n.NumInputs() <= 16 {
		order = bdd.SiftOrder(n, globalLimit, 16)
	}
	dec, err := bdd.DecomposeNetworkOrdered(n, globalLimit, order)
	// Candidate 2: global BDDs with the declaration order.
	if plain, err2 := bdd.DecomposeNetwork(n, globalLimit); err2 == nil {
		if err != nil || plain.NumGates() < dec.NumGates() {
			dec, err = plain, nil
		}
	}
	// Candidate 3: partitioned (windowed) decomposition — what BDS-class
	// tools do on functions whose monolithic BDDs are too large or too
	// MUX-chain shaped.
	if win, err2 := windowedBDS(n, 8); err2 == nil {
		if err != nil || win.Clean().NumGates() < dec.Clean().NumGates() {
			dec, err = win, nil
		}
	}
	if err != nil {
		return nil, OptMetrics{OK: false}
	}
	dec = dec.Clean()
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
	a := aig.FromNetwork(n)
	cuts := a.EnumerateCuts(k, 4)
	out := netlist.New(n.Name)

	// Map from AIG node to the signal of its decomposed implementation.
	mapped := make(map[int]netlist.Signal)
	mapped[0] = netlist.SigConst0
	for i := 0; i < a.NumInputs(); i++ {
		mapped[a.Input(i).Node()] = out.AddInput(a.InputName(i))
	}

	// chooseCut picks the widest non-trivial cut (fewest recursions).
	chooseCut := func(node int) aig.Cut {
		best := aig.Cut{Leaves: []int{node}}
		for _, c := range cuts[node] {
			if len(c.Leaves) == 1 && c.Leaves[0] == node {
				continue
			}
			if len(best.Leaves) == 1 || len(c.Leaves) > len(best.Leaves) {
				best = c
			}
		}
		return best
	}

	var build func(node int) (netlist.Signal, error)
	build = func(node int) (netlist.Signal, error) {
		if s, ok := mapped[node]; ok {
			return s, nil
		}
		cut := chooseCut(node)
		if len(cut.Leaves) == 1 && cut.Leaves[0] == node {
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
		leafSigs := make([]netlist.Signal, len(cut.Leaves))
		for i, l := range cut.Leaves {
			s, err := build(l)
			if err != nil {
				return 0, err
			}
			leafSigs[i] = s
		}
		f := a.CutFunction(node, cut)
		man := bdd.NewManager(len(cut.Leaves), 1<<16)
		root, err := man.FromTT(f)
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
	a, _, err := CSTOptPipeline().Run(aig.FromNetwork(n))
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
