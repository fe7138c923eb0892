package main

import (
	"context"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/logic"
	"repro/logic/bench"
)

func TestPercentileMedianGeomean(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {100, 4}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}} {
		if got := geomean(bad); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", bad, got)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.gen(7)
		if err != nil {
			t.Fatal(w.name, err)
		}
		b, err := w.gen(7)
		if err != nil {
			t.Fatal(w.name, err)
		}
		if len(a) == 0 || !sameInputs(a, b) {
			t.Errorf("%s: one seed generated different input bytes", w.name)
		}
	}
}

// TestSimCheckFlagsFlippedRow is the evaluator's self-test: a real
// optimized output passes, and the same output with one cover row flipped
// is flagged.
func TestSimCheckFlagsFlippedRow(t *testing.T) {
	in, err := bench.Circuit("my_adder")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := logic.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := sess.Optimize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ref, got := in.EncodeBLIF(), opt.EncodeBLIF()
	if err := simCheck(ref, got, 1, simWords); err != nil {
		t.Fatalf("optimized output rejected: %v", err)
	}

	// Flip the first literal of the first row of the cover that drives the
	// first output.
	m, err := parseBLIF(got)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(got, "\n")
	flipped := false
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != ".names" || f[len(f)-1] != m.outputs[0] {
			continue
		}
		row := []byte(lines[i+1])
		if row[0] == '1' {
			row[0] = '0'
		} else {
			row[0] = '1'
		}
		lines[i+1] = string(row)
		flipped = true
		break
	}
	if !flipped {
		t.Fatalf("no cover drives output %s", m.outputs[0])
	}
	if err := simCheck(ref, strings.Join(lines, "\n"), 1, simWords); err == nil {
		t.Fatal("an output with a flipped cover row passed the check")
	}
}

func TestParseBLIFRejectsMalformed(t *testing.T) {
	for _, src := range []string{
		".model m\n.inputs a\n.outputs y\n11 1\n.end\n",                // row outside .names
		".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n", // short cube
		".model m\n.inputs a\n.outputs y\n.latch a y\n.end\n",          // sequential
	} {
		if _, err := parseBLIF(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	m, err := parseBLIF(".model m\n.inputs a\n.outputs y\n.names y\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.simulate([][]uint64{{0}}, 1); err != nil {
		t.Fatalf("constant output: %v", err)
	}
}

// TestTracedTable1Row runs one Table I row traced and checks that the
// layers it calls show up and that request time splits into layer spans
// plus a remainder.
func TestTracedTable1Row(t *testing.T) {
	reqs, err := genCircuits([]string{"b9"})(1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(2)
	if err != nil {
		t.Fatal(err)
	}
	e.tr = newTracer(time.Now(), 0)
	id := e.tr.begin("request")
	outs, err := runTable1(context.Background(), e, &reqs[0])
	e.tr.end(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outputs, want mig, aig and bds", len(outs))
	}
	for _, o := range outs {
		if err := simCheck(string(reqs[0].src), o.blif, 1, simWords); err != nil {
			t.Errorf("%s: %v", o.leg, err)
		}
	}
	tot := e.tr.totals()
	derive(tot, 2)
	for _, k := range []string{"blif.decode_ms", "blif.encode_ms", "convert.to_aig_ms", "mig.optimize_ms", "mig.step.alg2-depth_ms", "aig.optimize_ms", "aig.step.resyn2_ms", "bds.ms", "blif.decode_mb_s", "aig.alloc_mb"} {
		if !(tot[k] > 0) {
			t.Errorf("%s = %v, want > 0", k, tot[k])
		}
	}
	if u := tot["trace.unattributed_ms"]; u < 0 || u > e.tr.spans[id].End-e.tr.spans[id].Start {
		t.Errorf("unattributed %v ms outside the request span", u)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := spec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with bash migperf/run.sh --spec > BENCHMARK.json")
	}
}
