// Package equiv provides combinational equivalence checking between
// netlists, used throughout the repository to validate that every
// optimization pass preserves function. The auto engine layers three
// exact engines by circuit size:
//
//   - truth-table comparison for networks with at most tt.MaxVars inputs,
//   - BDD-based comparison for medium networks (canonical, complete),
//     under a node budget sized from the two networks' gate count: a pair
//     whose diagrams outgrow it is left to the next engine, and
//   - SAT-based miter checking (internal/sat) for anything larger, which
//     always decides: it proves equivalence or returns a counterexample.
//
// Auto therefore answers exact, bdd or sat, or returns the context's error
// when cancellation or the deadline ends the SAT search first; the context
// is its only bound. Random simulation (probabilistic) runs only when
// forced via Options.Engine.
//
// Both the SAT and the simulation engine surface the failing input
// assignment in Result.Detail when the networks differ.
package equiv

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"repro/internal/bdd"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/tt"
)

// Method reports which engine decided the comparison.
type Method string

// Engine identifiers.
const (
	MethodExact Method = "exact"
	MethodBDD   Method = "bdd"
	MethodSAT   Method = "sat"
	MethodSim   Method = "simulation"
)

// Result of an equivalence check.
type Result struct {
	Equivalent bool
	Method     Method
	Detail     string
	// Conflicts and Restarts report the SAT effort behind the verdict
	// (zero for the non-SAT engines).
	Conflicts int64
	Restarts  int64
}

// Options controls the check.
type Options struct {
	// MaxExactInputs bounds the exhaustive engine (default 14).
	MaxExactInputs int
	// BDDLimit bounds each of the BDD engine's two network builds
	// (default 200_000 nodes). The forced bdd engine gets it whole. The
	// auto engine's attempt gets 8 nodes per gate of the two networks,
	// at least 1<<16 and at most BDDLimit; past that budget it falls
	// through to the SAT engine.
	BDDLimit int
	// Engine forces a specific engine: "exact", "bdd", "sim" or "sat"
	// ("" or "auto" layers exact -> BDD -> SAT). Forcing an engine that
	// cannot decide the instance (exact over too many inputs, bdd over the
	// node limit) returns an error instead of falling back.
	Engine string
}

// simRounds is the forced simulation engine's number of 64-pattern rounds.
const simRounds = 256

// The auto engine's BDD attempt gets a node budget per build sized from
// the pair: bddNodesPerGate nodes per gate of the two networks, and at
// least bddBudgetFloor. Against their flow outputs, the MCNC stand-ins
// whose BDD decides above the floor build in at most 2.6 nodes per gate
// (s38417's input: 81.9k nodes for 31,239 gates), while those whose input
// overflows 200k are proved by the SAT miter in 3–100 ms; stopping their
// attempts at the budget saves most of what a run to 200k costs. A build
// under the floor takes a few milliseconds whatever the variable order,
// so small pairs keep their BDD verdict however many nodes per gate they
// need: C1355's input builds in 14.7k nodes (13.6 per gate) and the
// tests' 12-bit adders in 61k for 84 gates.
const (
	bddNodesPerGate = 8
	bddBudgetFloor  = 1 << 16
)

// autoBDDBudget is the node budget of each of the auto engine's two BDD
// builds over networks with gates gates together, within the caller's
// limit.
func autoBDDBudget(gates, limit int) int {
	return min(limit, max(bddBudgetFloor, bddNodesPerGate*gates))
}

func (o *Options) defaults() {
	if o.MaxExactInputs == 0 {
		o.MaxExactInputs = 14
	}
	if o.BDDLimit == 0 {
		o.BDDLimit = 200_000
	}
}

// Check compares two networks with the same input and output counts.
// Inputs are matched positionally. Cancellation or deadline expiry
// interrupts the SAT engine's search promptly and is observed between the
// layered engines, returning the context's error. The SAT engine has no
// other bound. The exact/BDD/simulation engines run to completion once
// started — they are bounded by input count, node limit, and round count
// respectively.
func Check(ctx context.Context, a, b *netlist.Network, opts Options) (Result, error) {
	opts.defaults()
	if a.NumInputs() != b.NumInputs() {
		return Result{}, fmt.Errorf("equiv: input counts differ: %d vs %d", a.NumInputs(), b.NumInputs())
	}
	if a.NumOutputs() != b.NumOutputs() {
		return Result{}, fmt.Errorf("equiv: output counts differ: %d vs %d", a.NumOutputs(), b.NumOutputs())
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	switch opts.Engine {
	case "", "auto":
		if a.NumInputs() <= opts.MaxExactInputs && a.NumInputs() <= tt.MaxVars {
			return checkExact(a, b)
		}
		if res, ok := checkBDD(a, b, autoBDDBudget(a.NumGates()+b.NumGates(), opts.BDDLimit)); ok {
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return checkSAT(ctx, a, b)
	case "exact":
		if a.NumInputs() > tt.MaxVars {
			return Result{}, fmt.Errorf("equiv: exact engine cannot handle %d inputs (max %d)", a.NumInputs(), tt.MaxVars)
		}
		return checkExact(a, b)
	case "bdd":
		res, ok := checkBDD(a, b, opts.BDDLimit)
		if !ok {
			return Result{}, fmt.Errorf("equiv: BDD engine exceeded the %d-node limit", opts.BDDLimit)
		}
		return res, nil
	case "sat":
		return checkSAT(ctx, a, b)
	case "sim":
		return checkSim(a, b), nil
	}
	return Result{}, fmt.Errorf("equiv: unknown engine %q (want auto, exact, bdd, sim or sat)", opts.Engine)
}

func checkExact(a, b *netlist.Network) (Result, error) {
	ta, err := a.CollapseTT()
	if err != nil {
		return Result{}, err
	}
	tb, err := b.CollapseTT()
	if err != nil {
		return Result{}, err
	}
	for i := range ta {
		if !ta[i].Equal(tb[i]) {
			return Result{
				Equivalent: false,
				Method:     MethodExact,
				Detail:     fmt.Sprintf("output %d (%s) differs", i, a.Outputs[i].Name),
			}, nil
		}
	}
	return Result{Equivalent: true, Method: MethodExact}, nil
}

// checkSAT decides equivalence through a CNF miter (internal/sat), which
// always decides. A non-nil error is the context's (the solve was
// interrupted), the encoder's (an op the CNF layer cannot express) or an
// internal error (see satResult).
func checkSAT(ctx context.Context, a, b *netlist.Network) (Result, error) {
	res, err := sat.Miter(ctx, a, b)
	if err != nil {
		return Result{}, err
	}
	return satResult(a, b, res)
}

// satResult turns a miter outcome into a Result. A Sat counterexample is
// replayed on both networks first: one that distinguishes no output is an
// internal error of the SAT engine, never a verdict.
func satResult(a, b *netlist.Network, res sat.MiterResult) (Result, error) {
	switch res.Status {
	case sat.Unsat:
		return Result{
			Equivalent: true,
			Method:     MethodSAT,
			Detail:     fmt.Sprintf("miter UNSAT after %d conflicts", res.Conflicts),
			Conflicts:  res.Conflicts,
			Restarts:   res.Restarts,
		}, nil
	case sat.Sat:
		if firstDiff(a, b, res.Inputs) < 0 {
			return Result{}, fmt.Errorf("equiv: internal error: SAT counterexample inputs=%s distinguishes no output",
				bitString(res.Inputs))
		}
		return Result{
			Equivalent: false,
			Method:     MethodSAT,
			Detail:     cexDetail(a, b, res.Inputs),
			Conflicts:  res.Conflicts,
			Restarts:   res.Restarts,
		}, nil
	}
	return Result{}, fmt.Errorf("equiv: internal error: SAT miter returned %v without an error", res.Status)
}

func checkSim(a, b *netlist.Network) Result {
	r := rand.New(rand.NewSource(0x9E3779B9))
	pats := sim.RandomPatterns(r, a.NumInputs(), simRounds)
	sa := sim.Signature(a, pats)
	sb := sim.Signature(b, pats)
	if !sim.EqualSignatures(sa, sb) {
		return Result{
			Equivalent: false,
			Method:     MethodSim,
			Detail:     simCexDetail(a, b, pats, sa, sb),
		}
	}
	return Result{
		Equivalent: true,
		Method:     MethodSim,
		Detail:     fmt.Sprintf("%d random patterns", simRounds*64),
	}
}

// simCexDetail extracts the first failing pattern from differing simulation
// signatures and renders it in the same format as the SAT counterexamples.
func simCexDetail(a, b *netlist.Network, pats sim.Patterns, sa, sb [][]uint64) string {
	for r := range sa {
		for o := range sa[r] {
			d := sa[r][o] ^ sb[r][o]
			if d == 0 {
				continue
			}
			bit := uint(bits.TrailingZeros64(d))
			inBits := make([]bool, a.NumInputs())
			for i := range inBits {
				inBits[i] = (pats[r][i]>>bit)&1 == 1
			}
			return cexDetail(a, b, inBits)
		}
	}
	return "signatures differ"
}

// cexDetail renders a distinguishing input assignment, naming the first
// output it flips. The bit string lists inputs in declaration order.
func cexDetail(a, b *netlist.Network, inBits []bool) string {
	if i := firstDiff(a, b, inBits); i >= 0 {
		return fmt.Sprintf("output %d (%s) differs; counterexample inputs=%s",
			i, a.Outputs[i].Name, bitString(inBits))
	}
	return "counterexample inputs=" + bitString(inBits)
}

// firstDiff simulates both networks on one input assignment and returns
// the first output on which they differ, or -1.
func firstDiff(a, b *netlist.Network, inBits []bool) int {
	words := make([]uint64, len(inBits))
	for i, v := range inBits {
		if v {
			words[i] = 1
		}
	}
	wa := a.OutputWords(words)
	wb := b.OutputWords(words)
	for i := range wa {
		if (wa[i]^wb[i])&1 != 0 {
			return i
		}
	}
	return -1
}

func bitString(bits []bool) string {
	var sb strings.Builder
	sb.Grow(len(bits))
	for _, v := range bits {
		if v {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// checkBDD builds both networks into one manager, inputs in declaration
// order, where equal functions are equal Refs, and compares the outputs
// in order. Each build may add at most limit nodes; false means one
// overflowed and the BDD engine cannot decide.
func checkBDD(a, b *netlist.Network, limit int) (Result, bool) {
	m, ra, err := bdd.BuildNetwork(a, limit)
	if err != nil {
		return Result{}, false
	}
	rb, err := m.AddNetwork(b, limit)
	if err != nil {
		return Result{}, false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return Result{
				Equivalent: false,
				Method:     MethodBDD,
				Detail:     fmt.Sprintf("output %d (%s) differs", i, a.Outputs[i].Name),
			}, true
		}
	}
	return Result{Equivalent: true, Method: MethodBDD}, true
}
