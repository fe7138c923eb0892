// Command mighty is the repository's counterpart of the paper's MIGhty
// package: it reads a combinational circuit (structural Verilog or BLIF),
// optimizes it as a Majority-Inverter Graph through the public logic SDK,
// and writes the optimized circuit back.
//
//	mighty -in adder.v -opt depth -effort 3 -out adder_opt.v
//	mighty -in ctrl.blif -opt size -out ctrl_opt.blif
//	mighty -in adder.v -stats             # just print metrics
//	mighty -in adder.v -script "eliminate(8); reshape-depth; eliminate"
//	mighty -in adder.v -strategy migscript2
//	mighty -list-passes                   # show the scriptable passes
//	mighty -list-scripts                  # show the named strategy library
//
// The -opt flag selects the §IV algorithm: size (Alg. 1), depth (Alg. 2),
// activity (§IV.C), or flow (the paper's experimental recipe:
// depth-optimization interlaced with size and activity recovery).
//
// The -script flag replaces the canned algorithms with a user-defined
// pipeline of named passes ("name" or "name(args)" statements separated by
// ';', '#' comments allowed). The per-pass trace (size/depth/activity
// deltas and wall time) is printed to stderr; with -verify every pass is
// additionally checked for functional equivalence against the one before
// it, so the chain closes on the input (-verify auto proves these
// per-pass checks with the SAT engine).
//
// The -strategy flag resolves a named strategy from the script library
// (logic/script) — a curated or tuner-discovered pass script with
// metadata — and runs it exactly as -script would run its text;
// -list-scripts prints the library.
//
// The -verify flag selects the equivalence engine: auto (default; layers
// exact -> BDD -> SAT by circuit size), exact, bdd, sim, sat, or none to
// skip verification. The SAT engine is exact at any size and reports a
// concrete counterexample input assignment on mismatch, so auto always
// reports exact, bdd or sat; only the forced sim engine is not a proof.
//
// -timeout bounds the whole optimization (including SAT-backed
// verification) with a context deadline, the only bound on verification;
// expiry interrupts long solves promptly and the run fails with the
// context's error.
//
// -cpuprofile writes a runtime/pprof CPU profile of the run (decode,
// optimization, verification and encoding) for `go tool pprof`; it is
// complete when the run exits without error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/logic"
	"repro/logic/script"
)

func main() {
	in := flag.String("in", "", "input file (.v or .blif)")
	out := flag.String("out", "", "output file (.v or .blif); default stdout")
	optFlag := flag.String("opt", "flow", "optimization: size|depth|activity|flow|none")
	scriptFlag := flag.String("script", "", "pass script, e.g. \"eliminate(8); reshape-depth; eliminate\" (overrides -opt)")
	strategy := flag.String("strategy", "", "named strategy from the script library, e.g. migscript2 (overrides -opt and -script; see -list-scripts)")
	listPasses := flag.Bool("list-passes", false, "list the scriptable passes and exit")
	listScripts := flag.Bool("list-scripts", false, "list the named strategy library and exit")
	effort := flag.Int("effort", 3, "optimization effort (cycles)")
	stats := flag.Bool("stats", false, "print metrics only, no netlist output")
	verify := flag.String("verify", "auto", "equivalence engine for verification: auto|exact|bdd|sim|sat, or none/off/false to skip")
	jobs := flag.Int("jobs", 1, "worker budget for parallel passes (window-rewrite, rewrite-npn, fraig); results are identical for any value")
	timeout := flag.Duration("timeout", 0, "optimization deadline (0 = none), e.g. 30s")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.Parse()

	if *listPasses {
		fmt.Print(logic.FormatPassList(logic.KindMIG))
		return
	}
	if *listScripts {
		fmt.Print(script.Format())
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "mighty: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mighty: cpuprofile:", err)
			}
		}()
	}
	format, err := logic.FormatForPath(*in)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	net, err := logic.DecodeReader(format, f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	verifyEngine := *verify
	if *scriptFlag == "" && *strategy == "" && *optFlag == "none" {
		// Representation conversion only: nothing to verify (matches the
		// pre-SDK CLI, which skipped the check for -opt none).
		verifyEngine = "none"
	}
	opts := []logic.Option{
		logic.WithObjective(*optFlag),
		logic.WithScript(*scriptFlag),
		logic.WithEffort(*effort),
		logic.WithVerify(verifyEngine),
		logic.WithWorkers(*jobs),
	}
	if *strategy != "" {
		opts = append(opts, logic.WithStrategy(*strategy))
	}
	sess, err := logic.NewSession(opts...)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	optimized, res, err := sess.Optimize(ctx, net)
	if (*scriptFlag != "" || *strategy != "") && res != nil {
		fmt.Fprint(os.Stderr, res.Trace.Format())
	}
	if err != nil {
		fatal(err)
	}
	if res.VerifyMethod != "" {
		fmt.Fprintf(os.Stderr, "mighty: equivalence verified (%s)\n", res.VerifyMethod)
	}

	// Both halves of the line count the same unit: a flat input's Before is
	// the remajorized MIG the run starts from.
	b, a := res.Before, res.After
	fmt.Fprintf(os.Stderr, "mighty: %s: size=%d depth=%d activity=%.2f -> size=%d depth=%d activity=%.2f\n",
		net.Name(), b.Size, b.Depth, b.Activity, a.Size, a.Depth, a.Activity)

	if *stats {
		return
	}
	target := *out
	if target == "" {
		target = *in // format selection only
	}
	outFormat, err := logic.FormatForPath(target)
	if err != nil {
		outFormat = format
	}
	rendered, err := logic.Encode(optimized, outFormat)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Print(rendered)
		return
	}
	if err := os.WriteFile(*out, []byte(rendered), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
