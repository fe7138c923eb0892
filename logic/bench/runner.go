package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/aig"
	"repro/internal/equiv"
	"repro/internal/mapping"
	"repro/internal/mig"
	"repro/internal/netlist"
	"repro/logic"
)

// Config controls an experiment run.
type Config struct {
	Effort    int // MIG optimization effort (Alg. 1/2 cycles)
	AIGRounds int // resyn2 iterations
	// VerifyEngine checks the functional equivalence of every optimized
	// result with the given engine: auto (the layered check), exact,
	// bdd, sim or sat (see equiv.Options.Engine). Empty turns
	// verification off.
	VerifyEngine string
	MIGScript    string // optional pass script replacing the canned MIG flow
	// Fraig appends the SAT-sweeping pass to the canned MIG and AIG flows.
	Fraig bool
	// NPN appends the exact NPN-database rewriting pass (rewrite-npn) to
	// the canned MIG flow.
	NPN bool
	// Workers is the worker budget: the circuit pool of RunOptRows and
	// RunSynthRows (more than one also runs a row's flows concurrently,
	// as it does RunCompress's) and the budget of the parallel-safe passes
	// (window-rewrite, rewrite-npn, fraig) in the MIG and AIG legs; 0 or 1
	// runs everything serially. Results are byte-identical for any value.
	Workers int
	Lib     *mapping.Library
}

// Defaults fills zero fields.
func (c *Config) Defaults() {
	if c.Effort == 0 {
		c.Effort = 3
	}
	if c.AIGRounds == 0 {
		c.AIGRounds = 2
	}
	if c.Lib == nil {
		c.Lib = mapping.Default22nm()
	}
}

// OptRow is one benchmark's Table I-top measurement.
type OptRow struct {
	Name      string     `json:"name"`
	Inputs    int        `json:"inputs"`
	Outputs   int        `json:"outputs"`
	MIG       OptMetrics `json:"mig"`
	AIG       OptMetrics `json:"aig"`
	BDS       OptMetrics `json:"bds"`
	VerifyErr string     `json:"verify_err,omitempty"`
	// Verification cost across the row's checks (zero and omitted when
	// verification is off): wall milliseconds, SAT conflicts, solver
	// restarts.
	VerifyMS       float64 `json:"verify_ms,omitempty"`
	Conflicts      int64   `json:"conflicts,omitempty"`
	SolverRestarts int64   `json:"solver_restarts,omitempty"`
}

// RunOptRow measures logic optimization (Table I-top) for one circuit.
func RunOptRow(n logic.Network, cfg Config) OptRow {
	return runOptRow(logic.Flat(n), cfg, false)
}

// runOptRow is RunOptRow with the three flows optionally run concurrently
// (they are independent pure functions of n).
func runOptRow(n *netlist.Network, cfg Config, concurrent bool) OptRow {
	cfg.Defaults()
	row := OptRow{Name: n.Name, Inputs: n.NumInputs(), Outputs: n.NumOutputs()}

	var m *mig.MIG
	var a *aig.AIG
	var d *netlist.Network
	parallel3(concurrent,
		func() { m, row.MIG = MIGOptimize(n, cfg) },
		func() { a, row.AIG = AIGOptimize(n, cfg) },
		func() { d, row.BDS = BDSOptimize(n, bdsLimit) },
	)

	if cfg.VerifyEngine != "" {
		var labels []string
		var nets []*netlist.Network
		if row.MIG.OK {
			labels, nets = append(labels, "mig"), append(nets, m.ToNetwork())
		}
		if row.AIG.OK {
			labels, nets = append(labels, "aig"), append(nets, a.ToNetwork())
		}
		if row.BDS.OK {
			labels, nets = append(labels, "bds"), append(nets, d)
		}
		row.VerifyErr, row.VerifyMS, row.Conflicts, row.SolverRestarts = VerifyNetworks(n, cfg, labels, nets)
	}
	return row
}

// VerifyNetworks checks each labeled result against the reference network
// with cfg's verification engine, returning the accumulated failure
// description ("" = all equivalent) plus the cost of checking: wall
// milliseconds and the SAT effort the engines reported. Shared by the
// batch rows and the migbench compress experiment.
func VerifyNetworks(n *netlist.Network, cfg Config, labels []string, nets []*netlist.Network) (msg string, ms float64, conflicts, restarts int64) {
	opts := equiv.Options{Engine: cfg.VerifyEngine}
	start := time.Now()
	for i, got := range nets {
		res, err := equiv.Check(context.Background(), n, got, opts)
		conflicts += res.Conflicts
		restarts += res.Restarts
		if err != nil {
			msg += fmt.Sprintf("%s: %v; ", labels[i], err)
			continue
		}
		if !res.Equivalent {
			msg += fmt.Sprintf("%s NOT equivalent (%s); ", labels[i], res.Detail)
		}
	}
	return msg, float64(time.Since(start).Nanoseconds()) / 1e6, conflicts, restarts
}

// SynthRow is one benchmark's Table I-bottom measurement.
type SynthRow struct {
	Name string      `json:"name"`
	MIG  SynthResult `json:"mig"`
	AIG  SynthResult `json:"aig"`
	CST  SynthResult `json:"cst"`
}

// RunSynthRow measures the three synthesis flows (Table I-bottom) for one
// circuit.
func RunSynthRow(n logic.Network, cfg Config) SynthRow {
	return runSynthRow(logic.Flat(n), cfg, false)
}

// runSynthRow is RunSynthRow with the three flows optionally concurrent.
func runSynthRow(n *netlist.Network, cfg Config, concurrent bool) SynthRow {
	cfg.Defaults()
	row := SynthRow{Name: n.Name}
	parallel3(concurrent,
		func() { row.MIG, _ = migFlow(n, cfg.Effort, cfg.Lib) },
		func() { row.AIG, _ = aigFlow(n, cfg.AIGRounds, cfg.Lib) },
		func() { row.CST, _ = cstFlow(n, cfg.Lib) },
	)
	return row
}

// Geomean returns the geometric mean of the ratios num[i]/den[i], skipping
// non-positive entries.
func Geomean(num, den []float64) float64 {
	sum, cnt := 0.0, 0
	for i := range num {
		if num[i] <= 0 || den[i] <= 0 {
			continue
		}
		sum += math.Log(num[i] / den[i])
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(cnt))
}

// OptSummary aggregates Table I-top rows into the paper's §V.A headline
// ratios (MIG relative to AIG and to BDS).
type OptSummary struct {
	DepthVsAIG    float64 `json:"depth_vs_aig"`
	SizeVsAIG     float64 `json:"size_vs_aig"`
	ActivityVsAIG float64 `json:"activity_vs_aig"`
	DepthVsBDS    float64 `json:"depth_vs_bds"`
	SizeVsBDS     float64 `json:"size_vs_bds"`
	ActivityVsBDS float64 `json:"activity_vs_bds"`
}

// SummarizeOpt computes geometric-mean ratios over the rows.
func SummarizeOpt(rows []OptRow) OptSummary {
	var ms, md, ma, as, ad, aa, bs, bd, ba []float64
	for _, r := range rows {
		if !r.MIG.OK || !r.AIG.OK {
			continue
		}
		ms = append(ms, float64(r.MIG.Size))
		md = append(md, float64(r.MIG.Depth))
		ma = append(ma, r.MIG.Activity)
		as = append(as, float64(r.AIG.Size))
		ad = append(ad, float64(r.AIG.Depth))
		aa = append(aa, r.AIG.Activity)
		if r.BDS.OK {
			bs = append(bs, float64(r.BDS.Size))
			bd = append(bd, float64(r.BDS.Depth))
			ba = append(ba, r.BDS.Activity)
		} else {
			bs = append(bs, -1)
			bd = append(bd, -1)
			ba = append(ba, -1)
		}
	}
	// For the BDS ratios, skip rows where BDS failed (negative marker).
	mask := func(vals, bvals []float64) ([]float64, []float64) {
		var v, b []float64
		for i := range bvals {
			if bvals[i] > 0 {
				v = append(v, vals[i])
				b = append(b, bvals[i])
			}
		}
		return v, b
	}
	mdm, bdm := mask(md, bd)
	msm, bsm := mask(ms, bs)
	mam, bam := mask(ma, ba)
	return OptSummary{
		DepthVsAIG:    Geomean(md, ad),
		SizeVsAIG:     Geomean(ms, as),
		ActivityVsAIG: Geomean(ma, aa),
		DepthVsBDS:    Geomean(mdm, bdm),
		SizeVsBDS:     Geomean(msm, bsm),
		ActivityVsBDS: Geomean(mam, bam),
	}
}

// SynthSummary aggregates Table I-bottom rows: MIG flow relative to the
// best of the two counterpart flows per circuit (the paper's comparison).
type SynthSummary struct {
	DelayVsBest float64 `json:"delay_vs_best"`
	AreaVsBest  float64 `json:"area_vs_best"`
	PowerVsBest float64 `json:"power_vs_best"`
	DelayVsAIG  float64 `json:"delay_vs_aig"`
	AreaVsAIG   float64 `json:"area_vs_aig"`
	PowerVsAIG  float64 `json:"power_vs_aig"`
	DelayVsCST  float64 `json:"delay_vs_cst"`
	AreaVsCST   float64 `json:"area_vs_cst"`
	PowerVsCST  float64 `json:"power_vs_cst"`
}

// SummarizeSynth computes the synthesis ratios.
func SummarizeSynth(rows []SynthRow) SynthSummary {
	var md, ma, mp, ad, aa, ap, cd, ca, cp, bd, ba, bp []float64
	for _, r := range rows {
		md = append(md, r.MIG.Delay)
		ma = append(ma, r.MIG.Area)
		mp = append(mp, r.MIG.Power)
		ad = append(ad, r.AIG.Delay)
		aa = append(aa, r.AIG.Area)
		ap = append(ap, r.AIG.Power)
		cd = append(cd, r.CST.Delay)
		ca = append(ca, r.CST.Area)
		cp = append(cp, r.CST.Power)
		bd = append(bd, math.Min(r.AIG.Delay, r.CST.Delay))
		ba = append(ba, math.Min(r.AIG.Area, r.CST.Area))
		bp = append(bp, math.Min(r.AIG.Power, r.CST.Power))
	}
	return SynthSummary{
		DelayVsBest: Geomean(md, bd), AreaVsBest: Geomean(ma, ba), PowerVsBest: Geomean(mp, bp),
		DelayVsAIG: Geomean(md, ad), AreaVsAIG: Geomean(ma, aa), PowerVsAIG: Geomean(mp, ap),
		DelayVsCST: Geomean(md, cd), AreaVsCST: Geomean(ma, ca), PowerVsCST: Geomean(mp, cp),
	}
}
