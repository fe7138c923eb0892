// Command migbench regenerates the paper's experimental artifacts through
// the public benchmark API (logic/bench):
//
//	migbench -experiment table1top     # Table I-top (logic optimization)
//	migbench -experiment table1bottom  # Table I-bottom (synthesis flows)
//	migbench -experiment fig3          # Fig. 3 series (size/depth/activity)
//	migbench -experiment fig4          # Fig. 4 series (area/delay/power)
//	migbench -experiment compress      # the in-text large compression run
//	migbench -experiment summary       # §V headline ratios
//	migbench -experiment all           # everything above
//
// Every run prints measured values next to the values the paper reports.
// Absolute sizes differ (the MCNC originals are replaced by functional
// stand-ins; internal/mcnc documents the substitution rationale), so the
// quantity to compare is the ratio between flows.
//
// The benchmark engine is parallel: -jobs N distributes circuits over N
// workers, runs the competing flows of each circuit concurrently, and sets
// the worker budget of window-parallel passes (window-rewrite). All results
// are deterministic and ordered as in the serial run; only the measured
// wall times vary (normalize them with -zero-time to diff runs byte for
// byte). -json emits the per-circuit metrics as JSON instead of tables,
// for tracking the performance trajectory across commits: the checked-in
// bench_baseline.json snapshot (migbench -experiment summary -effort 2
// -json -zero-time) is compared against fresh runs by cmd/benchdiff, which
// CI gates at a 10% size/depth regression.
//
// -mig-script replaces the canned §V.A MIG flow with a pass script, e.g.
//
//	migbench -experiment table1top -jobs 8 \
//	    -mig-script "cleanup; window-rewrite; eliminate"
//
// which is how the window-parallel rewriting is exercised end to end; its
// output is byte-identical for every -jobs value. -strategy resolves a
// named strategy from the script library (logic/script) to the same
// effect, and -list-strategies prints the library's names.
//
// -tune searches the pass-script space for a strategy beating the canned
// flow on the benchmark suite (greedy pass-append with single-statement
// local search, scored by suite geomeans — see logic/script.Tune):
//
//	migbench -tune -tune-objective depth -tune-budget 2m -only b9,count,cla
//
// The run prints every accepted improvement, the winning script as a
// registrable strategy, and a per-circuit comparison against the canned
// flow at -effort.
//
// -pass-profile runs the MIG flow (canned or -mig-script) over the suite
// with per-pass trace capture and prints a pass-level time profile —
// total and mean time per pass name, the share of suite wall clock, and
// the cumulative size/depth deltas — which is how to find where a flow's
// time goes before reaching for a CPU profile (-cpuprofile).
//
// -verify selects an equivalence engine (auto|exact|bdd|sim|sat) and checks
// every optimized result against its input, exiting nonzero on any
// mismatch. Under auto each check is a proof (exact, bdd or sat) that runs
// as long as it takes; only sim is probabilistic. The SAT engine is exact
// at any circuit size, so
//
//	migbench -experiment table1top -mig-script "fraig" -verify=sat
//
// proves the SAT-sweeping pass sound over the whole suite. -fraig appends
// the fraig pass to the canned MIG and AIG flows instead of replacing them.
//
// -cpuprofile writes a runtime/pprof CPU profile of the whole run for `go
// tool pprof`; it is complete when the run exits without error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/logic"
	"repro/logic/bench"
	"repro/logic/script"
)

var (
	jobs     = flag.Int("jobs", 1, "worker-pool size; N >= 2 also runs each circuit's flows concurrently and fans window-parallel passes over N workers")
	asJSON   = flag.Bool("json", false, "emit per-circuit metrics as JSON instead of tables")
	zeroTime = flag.Bool("zero-time", false, "report wall times as 0 for byte-reproducible output")
)

func main() {
	experiment := flag.String("experiment", "all", "table1top|table1bottom|fig3|fig4|compress|summary|all")
	effort := flag.Int("effort", 3, "MIG optimization effort (cycles)")
	rounds := flag.Int("rounds", 2, "AIG resyn2 rounds")
	verify := flag.String("verify", "", "verify functional equivalence of optimized results with the given engine: auto|exact|bdd|sim|sat (empty/none = off); any failure exits nonzero")
	fraig := flag.Bool("fraig", false, "append the SAT-sweeping fraig pass to the canned MIG and AIG flows")
	npn := flag.Bool("npn", false, "append the exact NPN-database rewriting pass (rewrite-npn) to the canned MIG flow")
	only := flag.String("only", "", "comma-separated benchmark subset (default: all of Table I)")
	compressWords := flag.Int("compress-words", 1200, "size parameter for the compression circuit")
	migScript := flag.String("mig-script", "", "pass script replacing the canned MIG flow, e.g. \"cleanup; fraig; window-rewrite\"")
	strategy := flag.String("strategy", "", "named strategy from the script library replacing the canned MIG flow (see -list-strategies)")
	listStrategies := flag.Bool("list-strategies", false, "list the named strategies (name, kind, objective; one per line) and exit")
	tune := flag.Bool("tune", false, "search pass-script space for a strategy beating the canned flow (uses -only as the suite)")
	tuneObjective := flag.String("tune-objective", "size", "tuning objective: size|depth")
	tuneBudget := flag.Duration("tune-budget", time.Minute, "tuning wall-clock budget (0 = unbounded)")
	tuneTrials := flag.Int("tune-trials", 0, "cap on distinct scripts evaluated (0 = unbounded; deterministic budget)")
	tuneSeed := flag.String("tune-seed", "", "starting script for the tuner (default \"cleanup\")")
	tuneName := flag.String("tune-name", "", "name for the emitted strategy (default tuned-<objective>)")
	passProfile := flag.Bool("pass-profile", false, "run the MIG flow over the suite and print a per-pass time profile (total/mean time, % of wall clock, size/depth deltas)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.Parse()

	if *listStrategies {
		for _, st := range script.All() {
			fmt.Printf("%-18s %-4s %s\n", st.Name, st.Kind, st.Objective)
		}
		return
	}
	if *strategy != "" {
		if *migScript != "" {
			fmt.Fprintln(os.Stderr, "-strategy and -mig-script are mutually exclusive")
			os.Exit(2)
		}
		st, ok := script.Lookup(*strategy)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown strategy %q (have %s)\n", *strategy, strings.Join(script.Names(), ", "))
			os.Exit(2)
		}
		if st.Kind != script.KindMIG {
			fmt.Fprintf(os.Stderr, "strategy %q targets %s networks; migbench scripts the MIG flow\n", st.Name, st.Kind)
			os.Exit(2)
		}
		*migScript = st.Script
	}

	engine, verifyOn, err := logic.ParseVerify(*verify)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -verify: %v\n", err)
		os.Exit(2)
	}
	cfg := bench.Config{
		Effort: *effort, AIGRounds: *rounds,
		MIGScript: *migScript, Fraig: *fraig, NPN: *npn, Workers: *jobs,
	}
	if verifyOn {
		cfg.VerifyEngine = engine
	}
	cfg.Defaults()
	if *migScript != "" {
		if err := logic.ValidateScript(logic.KindMIG, *migScript); err != nil {
			fmt.Fprintf(os.Stderr, "bad -mig-script: %v\n", err)
			os.Exit(2)
		}
	}

	names := bench.Circuits()
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "migbench: cpuprofile:", err)
			}
		}()
	}

	if *passProfile {
		runPassProfile(names, cfg)
		return
	}
	if *tune {
		runTune(names, cfg, script.TuneOptions{
			Objective: *tuneObjective,
			Budget:    *tuneBudget,
			MaxTrials: *tuneTrials,
			Seed:      *tuneSeed,
			Name:      *tuneName,
		})
		return
	}

	switch *experiment {
	case "table1top":
		runTable1Top(names, cfg)
	case "table1bottom":
		runTable1Bottom(names, cfg)
	case "fig3":
		runFig3(names, cfg)
	case "fig4":
		runFig4(names, cfg)
	case "compress":
		runCompress(*compressWords, cfg)
	case "summary":
		runSummary(names, cfg)
	case "sweep":
		runSweep(names, cfg)
	case "all":
		runTable1Top(names, cfg)
		runTable1Bottom(names, cfg)
		runFig3(names, cfg)
		runFig4(names, cfg)
		runCompress(*compressWords, cfg)
		runSummary(names, cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func circuit(name string) logic.Network {
	n, err := bench.Circuit(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return n
}

func circuits(names []string) []logic.Network {
	nets := make([]logic.Network, len(names))
	for i, name := range names {
		nets[i] = circuit(name)
	}
	return nets
}

func optRows(names []string, cfg bench.Config) []bench.OptRow {
	rows := bench.RunOptRows(circuits(names), cfg, *jobs)
	failed := false
	for _, r := range rows {
		if r.VerifyErr != "" {
			fmt.Fprintf(os.Stderr, "migbench: VERIFY FAILED %s: %s\n", r.Name, r.VerifyErr)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if *zeroTime {
		bench.ZeroTimes(rows)
	}
	return rows
}

func synthRows(names []string, cfg bench.Config) []bench.SynthRow {
	rows := bench.RunSynthRows(circuits(names), cfg, *jobs)
	if *zeroTime {
		bench.ZeroSynthTimes(rows)
	}
	return rows
}

// emitJSON renders a report and reports whether JSON mode handled the
// output.
func emitJSON(r bench.Report) bool {
	if !*asJSON {
		return false
	}
	s, err := r.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(s)
	return true
}

func report(experiment string, cfg bench.Config) bench.Report {
	return bench.Report{Experiment: experiment, Effort: cfg.Effort, AIGRounds: cfg.AIGRounds, Jobs: *jobs}
}

func runTable1Top(names []string, cfg bench.Config) {
	rows := optRows(names, cfg)
	s := bench.SummarizeOpt(rows)
	r := report("table1top", cfg)
	r.Opt = rows
	r.OptSummary = &s
	if emitJSON(r) {
		return
	}
	fmt.Println("== Table I (top): logic optimization — measured ==")
	fmt.Print(bench.FormatOptTable(rows))
	fmt.Println("\n-- paper reference (Table I-top) --")
	for _, name := range names {
		p, ok := bench.PaperRowFor(name)
		if !ok {
			continue
		}
		bds := fmt.Sprintf("%6d %5d %9.2f", p.BDDSize, p.BDDDepth, p.BDDActivity)
		if p.BDDSize < 0 {
			bds = fmt.Sprintf("%6s %5s %9s", "N.A.", "N.A.", "N.A.")
		}
		fmt.Printf("%-10s %4d/%-4d | %6d %5d %9.2f | %6d %5d %9.2f | %s\n",
			p.Name, p.Inputs, p.Outputs,
			p.MIGSize, p.MIGDepth, p.MIGActivity,
			p.AIGSize, p.AIGDepth, p.AIGActivity, bds)
	}
	fmt.Printf("\nmeasured geomean ratios: MIG/AIG depth %.3f size %.3f act %.3f | MIG/BDS depth %.3f size %.3f act %.3f\n",
		s.DepthVsAIG, s.SizeVsAIG, s.ActivityVsAIG, s.DepthVsBDS, s.SizeVsBDS, s.ActivityVsBDS)
	fmt.Printf("paper:                   MIG/AIG depth 0.814 (−18.6%%), size ≈1.01, act ≈1.00 | MIG/BDS depth 0.763 size 0.979 act 0.969\n\n")
}

func runTable1Bottom(names []string, cfg bench.Config) {
	rows := synthRows(names, cfg)
	s := bench.SummarizeSynth(rows)
	r := report("table1bottom", cfg)
	r.Synth = rows
	r.SynthSummary = &s
	if emitJSON(r) {
		return
	}
	fmt.Println("== Table I (bottom): synthesis flows — measured ==")
	fmt.Print(bench.FormatSynthTable(rows))
	fmt.Println("\n-- paper reference (Table I-bottom) --")
	for _, name := range names {
		p, ok := bench.PaperRowFor(name)
		if !ok {
			continue
		}
		fmt.Printf("%-10s | %8.2f %6.3f %9.2f | %8.2f %6.3f %9.2f | %8.2f %6.3f %9.2f\n",
			p.Name, p.MIGArea, p.MIGDelay, p.MIGPower,
			p.AIGArea, p.AIGDelay, p.AIGPower,
			p.CSTArea, p.CSTDelay, p.CSTPower)
	}
	fmt.Printf("\nmeasured geomean MIG/best-counterpart: delay %.3f area %.3f power %.3f\n",
		s.DelayVsBest, s.AreaVsBest, s.PowerVsBest)
	fmt.Printf("paper:                                 delay 0.78 (−22%%) area 0.86 (−14%%) power 0.89 (−11%%)\n\n")
}

func runFig3(names []string, cfg bench.Config) {
	rows := optRows(names, cfg)
	r := report("fig3", cfg)
	r.Opt = rows
	if emitJSON(r) {
		return
	}
	fmt.Println("== Fig. 3: optimization space (size, depth, activity) ==")
	for _, series := range []struct {
		label string
		get   func(bench.OptRow) bench.OptMetrics
	}{
		{"MIG", func(r bench.OptRow) bench.OptMetrics { return r.MIG }},
		{"AIG", func(r bench.OptRow) bench.OptMetrics { return r.AIG }},
		{"BDD", func(r bench.OptRow) bench.OptMetrics { return r.BDS }},
	} {
		fmt.Printf("series %s:\n", series.label)
		var sz, dp, ac float64
		cnt := 0
		for _, r := range rows {
			m := series.get(r)
			if !m.OK {
				fmt.Printf("  %-10s N.A.\n", r.Name)
				continue
			}
			fmt.Printf("  %-10s size=%6d depth=%4d activity=%9.2f\n", r.Name, m.Size, m.Depth, m.Activity)
			sz += float64(m.Size)
			dp += float64(m.Depth)
			ac += m.Activity
			cnt++
		}
		if cnt > 0 {
			fmt.Printf("  centroid: size=%.1f depth=%.1f activity=%.1f (n=%d)\n",
				sz/float64(cnt), dp/float64(cnt), ac/float64(cnt), cnt)
		}
	}
	fmt.Println("paper centroids: MIG (2505, 28.9, 630) / AIG (2477, 35.5, 629) / BDD (2556, 37.9, 651)")
	fmt.Println()
}

func runFig4(names []string, cfg bench.Config) {
	rows := synthRows(names, cfg)
	r := report("fig4", cfg)
	r.Synth = rows
	if emitJSON(r) {
		return
	}
	fmt.Println("== Fig. 4: synthesis space (area, delay, power) ==")
	for _, series := range []struct {
		label string
		get   func(bench.SynthRow) bench.SynthResult
	}{
		{"MIG", func(r bench.SynthRow) bench.SynthResult { return r.MIG }},
		{"AIG", func(r bench.SynthRow) bench.SynthResult { return r.AIG }},
		{"CST", func(r bench.SynthRow) bench.SynthResult { return r.CST }},
	} {
		fmt.Printf("series %s:\n", series.label)
		var ar, dl, pw float64
		for _, r := range rows {
			m := series.get(r)
			fmt.Printf("  %-10s area=%8.2f delay=%6.3f power=%9.2f\n", r.Name, m.Area, m.Delay, m.Power)
			ar += m.Area
			dl += m.Delay
			pw += m.Power
		}
		n := float64(len(rows))
		fmt.Printf("  centroid: area=%.1f delay=%.3f power=%.1f\n", ar/n, dl/n, pw/n)
	}
	fmt.Println("paper centroids: MIG (270.7, 1.18, 600) / AIG (317.7, 1.53, 679) / CST (323.0, 1.43, 701)")
	fmt.Println()
}

func runCompress(words int, cfg bench.Config) {
	row, n := bench.RunCompress(words, cfg, *jobs)
	if row.VerifyErr != "" {
		fmt.Fprintf(os.Stderr, "migbench: VERIFY FAILED %s: %s\n", row.Name, row.VerifyErr)
		os.Exit(1)
	}
	rows := []bench.OptRow{row}
	if *zeroTime {
		bench.ZeroTimes(rows)
	}
	mm, am := rows[0].MIG, rows[0].AIG
	r := report("compress", cfg)
	r.Opt = rows
	if emitJSON(r) {
		return
	}
	fmt.Printf("== Compression circuit (words=%d; paper instance ~0.3M nodes) ==\n", words)
	fmt.Printf("unoptimized: %s\n", n.Stats())
	fmt.Printf("MIG: size=%d depth=%d time=%.1fs\n", mm.Size, mm.Depth, mm.Seconds)
	fmt.Printf("AIG: size=%d depth=%d time=%.1fs\n", am.Size, am.Depth, am.Seconds)
	fmt.Printf("ratios: size %.3f (paper +1.7%%), depth %.3f (paper −9.6%%), time %.2fx (paper 1.9x)\n\n",
		float64(mm.Size)/float64(am.Size), float64(mm.Depth)/float64(am.Depth), mm.Seconds/am.Seconds)
}

func runSweep(names []string, cfg bench.Config) {
	fmt.Println("== Effort sweep: MIG optimization quality vs effort (Alg. 1/2 cycles) ==")
	// The sweep measures the canned effort-driven flow; a fixed -mig-script
	// would make every effort row identical, so it is ignored here.
	cfg.MIGScript = ""
	for _, name := range names {
		n := circuit(name)
		fmt.Printf("%s:\n", name)
		for _, eff := range []int{1, 2, 4, 8} {
			c := cfg
			c.Effort = eff
			m := bench.MIGOptimizeNet(n, c)
			if *zeroTime {
				m.Seconds = 0
			}
			fmt.Printf("  effort %2d: size=%6d depth=%4d activity=%9.2f time=%.2fs\n",
				eff, m.Size, m.Depth, m.Activity, m.Seconds)
		}
	}
}

// runPassProfile runs the MIG flow (canned or -mig-script) over the
// selected circuits, then prints where the suite's wall clock went,
// aggregated per pass name from each run's trace.
func runPassProfile(names []string, cfg bench.Config) {
	traces := make([]logic.Trace, 0, len(names))
	var perCircuit strings.Builder
	for _, name := range names {
		m := bench.MIGOptimizeNet(circuit(name), cfg)
		if !m.OK {
			fmt.Fprintf(os.Stderr, "migbench: %s: MIG flow failed\n", name)
			os.Exit(1)
		}
		if *zeroTime {
			m.Seconds = 0
			for i := range m.Trace {
				m.Trace[i].Seconds = 0
			}
		}
		fmt.Fprintf(&perCircuit, "%-10s %4d passes  size=%6d depth=%4d time=%.2fs\n",
			name, len(m.Trace), m.Size, m.Depth, m.Seconds)
		traces = append(traces, m.Trace)
	}
	fmt.Println("== Pass profile: MIG flow over the suite ==")
	fmt.Print(perCircuit.String())
	fmt.Println()
	fmt.Print(bench.FormatPassProfile(bench.ProfileTraces(traces)))
}

// runTune drives the script tuner (logic/script.Tune) over the selected
// circuits with the MCNC-backed evaluator, then prints the winning
// strategy and a per-circuit comparison against the canned flow at the
// run's -effort.
func runTune(names []string, cfg bench.Config, o script.TuneOptions) {
	o.Circuits = names
	o.Eval = bench.ScriptEvaluator(*jobs)
	o.Log = os.Stderr
	res, err := script.Tune(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migbench: tune:", err)
		os.Exit(1)
	}
	fmt.Printf("== Script tuner: objective %s over %s ==\n", res.Best.Objective, strings.Join(names, ","))
	fmt.Printf("trials=%d stopped=%s\n", res.Trials, res.Stopped)
	fmt.Printf("seed geomeans: size=%.2f depth=%.2f\n", res.SeedSize, res.SeedDepth)
	fmt.Printf("best geomeans: size=%.2f depth=%.2f\n", res.BestSize, res.BestDepth)
	fmt.Printf("\nwinning strategy (register in logic/script to ship it):\n")
	fmt.Printf("  name:      %s\n", res.Best.Name)
	fmt.Printf("  objective: %s\n", res.Best.Objective)
	fmt.Printf("  script:    %s\n", res.Best.Script)

	// Per-circuit comparison against the canned §V.A flow at -effort.
	eval := bench.ScriptEvaluator(*jobs)
	flowCfg := cfg
	flowCfg.MIGScript = ""
	fmt.Printf("\n%-10s %14s %14s\n", "circuit", "flow size/depth", "tuned size/depth")
	for _, name := range names {
		flow := bench.MIGOptimizeNet(circuit(name), flowCfg)
		tuned, err := eval(context.Background(), name, res.Best.Script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "migbench: tune:", err)
			os.Exit(1)
		}
		mark := ""
		if tuned.Size < flow.Size || tuned.Depth < flow.Depth {
			mark = "  <- tuned wins"
		}
		fmt.Printf("%-10s %8d/%-5d %10d/%-5d%s\n", name, flow.Size, flow.Depth, tuned.Size, tuned.Depth, mark)
	}
}

func runSummary(names []string, cfg bench.Config) {
	or := optRows(names, cfg)
	sr := synthRows(names, cfg)
	so := bench.SummarizeOpt(or)
	ss := bench.SummarizeSynth(sr)
	r := report("summary", cfg)
	r.Opt = or
	r.Synth = sr
	r.OptSummary = &so
	r.SynthSummary = &ss
	if emitJSON(r) {
		return
	}
	fmt.Println("== §V headline ratios ==")
	fmt.Printf("logic optimization, MIG vs AIG:  depth %+.1f%% (paper −18.6%%)  size %+.1f%% (paper +0.9%%)  activity %+.1f%% (paper +0.3%%)\n",
		100*(so.DepthVsAIG-1), 100*(so.SizeVsAIG-1), 100*(so.ActivityVsAIG-1))
	fmt.Printf("logic optimization, MIG vs BDS:  depth %+.1f%% (paper −23.7%%)  size %+.1f%% (paper −2.1%%)  activity %+.1f%% (paper −3.1%%)\n",
		100*(so.DepthVsBDS-1), 100*(so.SizeVsBDS-1), 100*(so.ActivityVsBDS-1))
	fmt.Printf("synthesis, MIG vs best flow:     delay %+.1f%% (paper −22%%)  area %+.1f%% (paper −14%%)  power %+.1f%% (paper −11%%)\n",
		100*(ss.DelayVsBest-1), 100*(ss.AreaVsBest-1), 100*(ss.PowerVsBest-1))
}
