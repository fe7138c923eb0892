package main

// The benchmark's metric registry. BENCHMARK.json at the repository root is
// this file's output (migperf -spec); a test keeps the two in step.

import (
	"bytes"
	"encoding/json"
	"math"
)

// runSeconds is how long one run measures by default.
const runSeconds = 15

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run. Bound is the share of the
// parent's median by which a metric may worsen before a change counts as
// a regression. Request costs are in probe times (probe.go), not seconds:
// on a shared host raw wall-clock medians of ten runs spread by up to 22%,
// cost in probe times by up to 11%. The wall-clock figures are per-layer
// metrics (run.*).
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_probes", "probes", "lower", 0.25},
	{"time_geomean_probes", "probes", "lower", 0.25},
	{"size_geomean", "nodes", "lower", 0.02},
	{"depth_geomean", "levels", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of a traced run, each the median over its
// traced passes of the pass total. Layers a workload does not reach read 0.
var perLayer = func() []layerMetric {
	ms := func(name string) layerMetric { return layerMetric{name, "ms", "lower"} }
	mb := func(name string) layerMetric { return layerMetric{name, "MB", "lower"} }
	count := func(name, better string) layerMetric { return layerMetric{name, "count", better} }
	ratio := func(name, better string) layerMetric { return layerMetric{name, "ratio", better} }
	l := []layerMetric{
		{"run.wall_s", "s", "lower"}, ms("run.time_geomean_ms"),
		ms("blif.decode_ms"), {"blif.decode_mb_s", "MB/s", "higher"}, ms("blif.encode_ms"), mb("blif.alloc_mb"),
		ms("convert.remajorize_ms"), ms("convert.to_mig_ms"), ms("convert.to_aig_ms"),
		ms("mig.optimize_ms"), mb("mig.alloc_mb"), count("mig.steps", "lower"), ratio("mig.steps_effective_ratio", "higher"),
	}
	for _, p := range append(stepNames["mig"], "other") {
		l = append(l, ms("mig.step."+p+"_ms"))
	}
	l = append(l, ms("aig.optimize_ms"), mb("aig.alloc_mb"))
	for _, p := range append(stepNames["aig"], "other") {
		l = append(l, ms("aig.step."+p+"_ms"))
	}
	l = append(l, ms("bds.ms"), count("bds.na", "lower"),
		ms("equiv.ms"), mb("equiv.alloc_mb"), ratio("equiv.proven_ratio", "higher"))
	for _, m := range verdicts {
		l = append(l, count("equiv."+m+"_count", "lower"), ms("equiv."+m+"_ms"))
	}
	return append(l,
		ms("part.cut_ms"), ms("part.optimize_ms"), ms("part.stitch_ms"),
		layerMetric{"part.window_max_s", "s", "lower"}, layerMetric{"part.window_sum_s", "s", "lower"},
		count("part.windows_mig", "higher"), count("part.windows_aig", "lower"), ratio("part.parallel_eff", "higher"),
		ratio("check.failed_ratio", "lower"),
		ratio("trace.overhead_ratio", "lower"), ms("trace.unattributed_ms"),
	)
}()

// verdicts are the methods logic.Equivalent reports with the auto engine;
// all but simulation are proofs.
var verdicts = []string{"exact", "bdd", "sat", "simulation"}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

// spec renders BENCHMARK.json.
func spec() ([]byte, error) {
	s := benchSpec{
		Command:    []string{"bash", "migperf/run.sh"},
		Paths:      []string{"migperf"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	err := enc.Encode(s)
	return b.Bytes(), err
}

// metricValue is one metric as the result line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// derive completes one traced pass's totals with the per-layer ratios.
func derive(t map[string]float64, workers int) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	t["blif.decode_mb_s"] = div(t["blif.decode_bytes"]/1e6, t["blif.decode_ms"]/1000)
	t["mig.steps_effective_ratio"] = div(t["mig.steps_effective"], t["mig.steps"])
	proven, all := 0.0, 0.0
	for _, m := range verdicts {
		n := t["equiv."+m+"_count"]
		all += n
		if m != "simulation" {
			proven += n
		}
	}
	t["equiv.proven_ratio"] = div(proven, all)
	if t["part.ms"] > 0 {
		opt := t["part.ms"] - t["part.cut_ms"] - t["part.stitch_ms"]
		t["part.optimize_ms"] = opt
		t["part.parallel_eff"] = div(t["part.window_sum_s"], float64(workers)*opt/1000)
	}
}

// finite keeps NaN and infinities out of the JSON result.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
