package logic_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mig"
	"repro/logic"
	"repro/logic/bench"
)

func circuit(t *testing.T, name string) logic.Network {
	t.Helper()
	n, err := bench.Circuit(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSessionDefaultsMatchCLI is the defaults-audit regression: a
// zero-option Session must produce byte-identical results to the mighty
// CLI's default path (remajorize, then the §V.A flow at effort 3 — the
// same defaults synth.Config.Defaults used to fill in).
func TestSessionDefaultsMatchCLI(t *testing.T) {
	net := circuit(t, "b9")

	// The CLI default path, spelled out on the internal engines.
	want, _, err := mig.FlowPipeline(3).Run(mig.FromNetwork(logic.Flat(net).Remajorize()))
	if err != nil {
		t.Fatal(err)
	}

	sess, err := logic.NewSession() // zero options
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := sess.Optimize(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	wantBLIF := logic.FromNetlist(want.ToNetwork()).EncodeBLIF()
	if got.EncodeBLIF() != wantBLIF {
		t.Fatal("zero-option Session output differs from the CLI default flow")
	}
	if got.Size() != want.Size() || got.Depth() != want.Depth() {
		t.Fatalf("metrics differ: session %d/%d vs CLI %d/%d",
			got.Size(), got.Depth(), want.Size(), want.Depth())
	}
	if len(res.Trace) == 0 {
		t.Fatal("session recorded no trace")
	}
}

// TestBeforeCountsStartNetwork pins Result.Before to the network the run
// starts from. For a flat input that is the remajorized MIG, so an
// objective that optimizes nothing reports no change and the flow's
// Before is its first step's input.
func TestBeforeCountsStartNetwork(t *testing.T) {
	net := circuit(t, "my_adder")
	run := func(opts ...logic.Option) *logic.Result {
		t.Helper()
		sess, err := logic.NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := sess.Optimize(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	none := run(logic.WithObjective("none"))
	if none.Before != none.After {
		t.Fatalf("objective none: before %+v, after %+v", none.Before, none.After)
	}
	flow := run(logic.WithObjective("flow"))
	if len(flow.Trace) == 0 {
		t.Fatal("flow recorded no trace")
	}
	if st := flow.Trace[0]; flow.Before.Size != st.SizeBefore || flow.Before.Depth != st.DepthBefore {
		t.Fatalf("flow: before %d/%d, first step starts at %d/%d",
			flow.Before.Size, flow.Before.Depth, st.SizeBefore, st.DepthBefore)
	}
}

// TestRoundTripMCNC drives BLIF -> Network -> Verilog -> Network -> BLIF
// through the public API over the MCNC suite, checking names, PI/PO order
// and function.
func TestRoundTripMCNC(t *testing.T) {
	names := bench.Circuits()
	if testing.Short() {
		names = []string{"b9", "count", "my_adder"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			orig := circuit(t, name)
			blif1 := orig.EncodeBLIF()

			fromBLIF, err := logic.DecodeBLIF(blif1)
			if err != nil {
				t.Fatalf("BLIF decode: %v", err)
			}
			v := fromBLIF.EncodeVerilog()
			fromV, err := logic.DecodeVerilog(v)
			if err != nil {
				t.Fatalf("Verilog decode: %v", err)
			}
			blif2 := fromV.EncodeBLIF()
			final, err := logic.DecodeBLIF(blif2)
			if err != nil {
				t.Fatalf("BLIF re-decode: %v", err)
			}

			// Interface preserved: same PI/PO names in the same order.
			if gi, wi := fmt.Sprint(final.InputNames()), fmt.Sprint(orig.InputNames()); gi != wi {
				t.Fatalf("input names changed:\n got %s\nwant %s", gi, wi)
			}
			if go_, wo := fmt.Sprint(final.OutputNames()), fmt.Sprint(orig.OutputNames()); go_ != wo {
				t.Fatalf("output names changed:\n got %s\nwant %s", go_, wo)
			}
			// Function preserved.
			eq, err := logic.Equivalent(context.Background(), orig, final, "auto")
			if err != nil {
				t.Fatal(err)
			}
			if !eq.Equivalent {
				t.Fatalf("round trip broke function (%s): %s", eq.Method, eq.Detail)
			}
		})
	}
}

func TestSessionOptionErrors(t *testing.T) {
	cases := []struct {
		opt  logic.Option
		want string
	}{
		{logic.WithEffort(0), "effort"},
		{logic.WithObjective("speed"), "unknown objective"},
		{logic.WithVerify("maybe"), "unknown verify engine"},
		{logic.WithWorkers(-1), "workers"},
		{logic.WithAIGRounds(0), "aig rounds"},
		{logic.WithActivityProbs([]float64{0.5, 1.5}), "activity probability"},
		{logic.WithActivityProbs([]float64{math.NaN()}), "activity probability"},
	}
	for _, c := range cases {
		if _, err := logic.NewSession(c.opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewSession err = %v, want substring %q", err, c.want)
		}
	}
}

func TestSessionScriptBadScript(t *testing.T) {
	sess, err := logic.NewSession(logic.WithScript("reshap"))
	if err != nil {
		t.Fatal(err) // scripts are validated lazily, per representation
	}
	_, _, err = sess.Optimize(context.Background(), circuit(t, "b9"))
	if err == nil || !strings.Contains(err.Error(), `unknown pass "reshap" at offset 0`) {
		t.Fatalf("err = %v, want located script error", err)
	}
	if err := logic.ValidateScript(logic.KindMIG, "reshap"); err == nil {
		t.Fatal("ValidateScript missed the bad pass")
	}
	if err := logic.ValidateScript(logic.KindAIG, "balance; rewrite"); err != nil {
		t.Fatal(err)
	}
}

func TestSessionScriptTraceAndPerPassVerify(t *testing.T) {
	sess, err := logic.NewSession(
		logic.WithScript("eliminate(8); reshape-depth; eliminate"),
		logic.WithVerify("auto"),
	)
	if err != nil {
		t.Fatal(err)
	}
	net := circuit(t, "count")
	out, res, err := sess.Optimize(context.Background(), net)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind() != logic.KindMIG {
		t.Fatalf("kind = %s", out.Kind())
	}
	if len(res.Trace) != 3 {
		t.Fatalf("trace has %d steps, want 3", len(res.Trace))
	}
	if res.Trace[0].Pass != "eliminate(8)" {
		t.Fatalf("step 0 label = %q", res.Trace[0].Pass)
	}
	for _, st := range res.Trace {
		if st.Equiv != "ok" {
			t.Fatalf("per-pass verification missing: %+v", st)
		}
	}
	if res.VerifyMethod == "" {
		t.Fatal("final verification method missing")
	}
	if !strings.Contains(res.Trace.Format(), "eliminate(8)") {
		t.Fatal("Trace.Format lost the pass labels")
	}
}

func TestSessionAIG(t *testing.T) {
	net := circuit(t, "dalu")
	a := logic.ToAIG(net)
	sess, err := logic.NewSession(logic.WithAIGRounds(1), logic.WithVerify("auto"))
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := sess.Optimize(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind() != logic.KindAIG {
		t.Fatalf("kind = %s, want aig", out.Kind())
	}
	if res.VerifyMethod == "" {
		t.Fatal("AIG run not verified")
	}
	if out.Size() >= a.Size() {
		t.Fatalf("resyn2 did not shrink dalu: %d -> %d", a.Size(), out.Size())
	}
}

// TestSessionWorkersByteIdentical: parallel passes fanned over a session
// worker budget must produce byte-identical results for any budget.
func TestSessionWorkersByteIdentical(t *testing.T) {
	net := circuit(t, "alu4")
	var outs []string
	for _, workers := range []int{1, 4} {
		sess, err := logic.NewSession(
			logic.WithScript("cleanup; window-rewrite; fraig; eliminate"),
			logic.WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := sess.Optimize(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out.EncodeBLIF())
	}
	if outs[0] != outs[1] {
		t.Fatal("worker budget changed the result bytes")
	}
}

// TestSessionCexPoolIsolation: the counterexample pool fraig passes share
// is scoped to one Optimize call. Re-running the same session, or a second
// independent session, must be byte-identical — no pattern learned in one
// run may influence another — and a pooled multi-fraig script must stay
// worker-invariant.
func TestSessionCexPoolIsolation(t *testing.T) {
	net := circuit(t, "dalu")
	run := func(workers int) string {
		t.Helper()
		sess, err := logic.NewSession(
			logic.WithScript("fraig; eliminate; fraig"),
			logic.WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := sess.Optimize(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		return out.EncodeBLIF()
	}
	first := run(1)
	if run(1) != first {
		t.Fatal("a second run of the same configuration differs: pool state leaked across Optimize calls")
	}
	if run(8) != first {
		t.Fatal("worker budget changed a pooled multi-fraig run")
	}

	// A session reused across different Optimize calls must also behave as
	// if each call were its first.
	sess, err := logic.NewSession(logic.WithScript("fraig; eliminate; fraig"))
	if err != nil {
		t.Fatal(err)
	}
	var outs []string
	for i := 0; i < 2; i++ {
		out, _, err := sess.Optimize(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out.EncodeBLIF())
	}
	if outs[0] != outs[1] || outs[0] != first {
		t.Fatal("session reuse changed results: pools must not persist between calls")
	}
}

func TestNetworkInterface(t *testing.T) {
	m := logic.NewMIG("t")
	x := m.AddInput("x")
	y := m.AddInput("y")
	z := m.AddInput("z")
	m.AddOutput("o", m.Maj(x, y, z))
	if m.Kind() != logic.KindMIG || m.Size() != 1 || m.NumInputs() != 3 {
		t.Fatalf("stats: %+v", m.Stats())
	}
	if fmt.Sprint(m.InputNames()) != "[x y z]" || fmt.Sprint(m.OutputNames()) != "[o]" {
		t.Fatal("names")
	}

	// Clone independence.
	c := m.Clone().(*logic.MIG)
	c.AddOutput("o2", c.And(c.AddInput("w"), x))
	if m.NumOutputs() != 1 || c.NumOutputs() != 2 {
		t.Fatal("clone not independent")
	}

	// Conversions preserve function across all three representations.
	ctx := context.Background()
	a := logic.ToAIG(m)
	f := logic.Flatten(m)
	for _, other := range []logic.Network{a, f} {
		eq, err := logic.Equivalent(ctx, m, other, "exact")
		if err != nil {
			t.Fatal(err)
		}
		if !eq.Equivalent {
			t.Fatalf("conversion to %s broke function", other.Kind())
		}
	}
	// Identity conversions return the same wrapper.
	if logic.ToMIG(m) != m || logic.ToAIG(a) != a || logic.Flatten(f) != f {
		t.Fatal("identity conversion allocated a new wrapper")
	}

	// Stats line mentions the key numbers.
	s := m.Stats().String()
	if !strings.Contains(s, "size=1") || !strings.Contains(s, "mig") {
		t.Fatalf("stats string %q", s)
	}
}

func TestFormats(t *testing.T) {
	if f, err := logic.FormatForPath("x/y/z.blif"); err != nil || f != logic.FormatBLIF {
		t.Fatal(f, err)
	}
	if f, err := logic.FormatForPath("a.v"); err != nil || f != logic.FormatVerilog {
		t.Fatal(f, err)
	}
	if _, err := logic.FormatForPath("a.edif"); err == nil {
		t.Fatal("want error")
	}
	if f, err := logic.ParseFormat("Verilog"); err != nil || f != logic.FormatVerilog {
		t.Fatal(f, err)
	}
	if _, err := logic.Decode("edif", ""); err == nil {
		t.Fatal("want decode error")
	}
	if _, err := logic.Encode(logic.NewMIG("m"), "edif"); err == nil {
		t.Fatal("want encode error")
	}
}

// buildMultiplier constructs an n x n array multiplier; wallace selects a
// 3:2-compressor reduction instead of row-by-row ripple accumulation, so
// the two variants share almost no internal structure — which is what
// makes their miter hard for SAT sweeping and the final solve (the C6288
// effect, reproduced deliberately for the cancellation test below).
func buildMultiplier(name string, n int, wallace bool) logic.Network {
	net := logic.NewNetwork(name)
	a := make([]logic.Signal, n)
	b := make([]logic.Signal, n)
	for i := range a {
		a[i] = net.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := range b {
		b[i] = net.AddInput(fmt.Sprintf("b%d", i))
	}
	width := 2 * n
	rows := make([][]logic.Signal, n)
	for i := 0; i < n; i++ {
		row := make([]logic.Signal, width)
		for j := range row {
			row[j] = logic.SigConst0
		}
		for j := 0; j < n; j++ {
			row[i+j] = net.AddGate(logic.OpAnd, a[j], b[i])
		}
		rows[i] = row
	}
	addRows := func(x, y []logic.Signal) []logic.Signal {
		sum := make([]logic.Signal, width)
		carry := logic.SigConst0
		for bit := 0; bit < width; bit++ {
			sum[bit] = net.AddGate(logic.OpXor, x[bit], y[bit], carry)
			carry = net.AddGate(logic.OpMaj, x[bit], y[bit], carry)
		}
		return sum
	}
	if wallace {
		for len(rows) > 2 {
			var next [][]logic.Signal
			for i := 0; i+2 < len(rows); i += 3 {
				s := make([]logic.Signal, width)
				k := make([]logic.Signal, width)
				k[0] = logic.SigConst0
				for bit := 0; bit < width; bit++ {
					s[bit] = net.AddGate(logic.OpXor, rows[i][bit], rows[i+1][bit], rows[i+2][bit])
					if bit+1 < width {
						k[bit+1] = net.AddGate(logic.OpMaj, rows[i][bit], rows[i+1][bit], rows[i+2][bit])
					}
				}
				next = append(next, s, k)
			}
			next = append(next, rows[len(rows)-len(rows)%3:]...)
			rows = next
		}
		rows = [][]logic.Signal{addRows(rows[0], rows[1])}
	} else {
		acc := rows[0]
		for i := 1; i < len(rows); i++ {
			acc = addRows(acc, rows[i])
		}
		rows = [][]logic.Signal{acc}
	}
	for bit := 0; bit < width; bit++ {
		net.AddOutput(fmt.Sprintf("p%d", bit), rows[0][bit])
	}
	return net
}

// TestCancelInterruptsSATVerify is the acceptance-criteria cancellation
// test: a SAT-backed equivalence check on a multiplier miter whose solve
// would run far longer than the cancellation point returns promptly with
// the context's error — well before any conflict budget.
func TestCancelInterruptsSATVerify(t *testing.T) {
	// Two structurally different 10x10 multipliers: the sweep finds few
	// internal correspondences, so the output miter is genuinely hard
	// (multiplier CEC is the classic resolution-hard family).
	ripple := buildMultiplier("mul_ripple", 10, false)
	wallace := buildMultiplier("mul_wallace", 10, true)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := logic.Equivalent(ctx, ripple, wallace, "sat")
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("SAT finished the multiplier miter before the cancel fired; no promptness to measure")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to interrupt the SAT verify", elapsed)
	}
	t.Logf("interrupted after %v (cancel at 100ms)", elapsed)
}

// TestSessionDeadlineInterruptsOptimize: the pipeline observes the
// deadline between passes and inside ctx-aware passes. The circuit must
// take well over the 50 ms deadline at effort 8, or the run finishes first
// and the test skips: s38417 takes ~0.55 s on a 2-core container.
func TestSessionDeadlineInterruptsOptimize(t *testing.T) {
	net := circuit(t, "s38417")
	sess, err := logic.NewSession(logic.WithEffort(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = sess.Optimize(ctx, net)
	if err == nil {
		t.Skip("effort-8 flow finished within 50ms")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to interrupt the flow", elapsed)
	}
}
