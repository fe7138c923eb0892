// Command migperf is the repository benchmark. It drives the program only
// through its public packages (logic, logic/bench, logic/partition) over
// the decode → optimize → verify → encode path, times every layer from
// outside by wrapping the calls into it, checks every output with its own
// BLIF simulator, and prints every metric by name with its unit.
//
// Run it from the repository root; run.sh builds it from the checkout's
// sources first:
//
//	bash migperf/run.sh --workload mcnc-verified --seed 1 --seconds 15 --trace 0
//	bash migperf/run.sh --workload all --seed 1
//	bash migperf/run.sh --spec > BENCHMARK.json
//
// Load model: a closed loop with one client and one request in flight. The
// program gets a worker budget of nproc; GOMAXPROCS stays at nproc.
//
// A run generates its inputs (median of three generations) and makes one
// untimed warm-up pass; both together are setup_s. It then makes passes
// over the requests, in an order drawn from the seed, until --seconds have
// passed and at least three passes are done. With --trace 1 every other
// pass is traced and the per-layer metrics replace the end-to-end ones.
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}. The line before it holds
// the provenance and the determinism record. Outputs of the same sources
// and seed must repeat exactly, within a run and across runs; records of
// earlier runs are kept under .bench_build/migperf.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/logic"
)

// stateDir holds determinism records and span dumps, inside the checkout.
const stateDir = ".bench_build/migperf"

const (
	genRepeats = 3  // input generations per run; setup_s takes their median
	minPasses  = 3  // measured passes at least, whatever --seconds says
	simWords   = 16 // 64-pattern words per independent check
)

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "workload seed: request order and check patterns")
	seconds := flag.Float64("seconds", runSeconds, "seconds of measured passes")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printSpec {
		b, err := spec()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := lookupWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "migperf: unknown workload %q (want all, %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "migperf: --trace must be 0 or 1")
		os.Exit(2)
	}
	digest, err := sourceDigest(".")
	if err != nil {
		fatal(err)
	}
	for _, w := range ws {
		if err := runAndReport(w, *seed, *seconds, *trace == 1, digest); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "migperf:", err)
	os.Exit(1)
}

// requestRecord is the determinism record of one request.
type requestRecord struct {
	Name    string         `json:"name"`
	Outputs []outputRecord `json:"outputs"`
}

// outputRecord is one output's SHA-256, its size and depth as a MIG (after
// logic.ToMIG, one unit for every flow), and its equivalence verdict.
type outputRecord struct {
	Leg     string `json:"leg"`
	SHA256  string `json:"sha256"`
	Size    int    `json:"size"`
	Depth   int    `json:"depth"`
	Verdict string `json:"verdict,omitempty"`
}

// runner executes one workload run.
type runner struct {
	w         *workload
	seed      uint64
	env       *env
	reqs      []request
	order     splitmix
	probe     probe
	records   map[string]*requestRecord
	attempted int
	failures  []string
}

// measurement is what the passes of one run measured.
type measurement struct {
	setupS      float64
	walls       []float64            // untraced measured passes, s
	peaksMB     []float64            // peak RSS of each untraced pass
	tracedWalls []float64            // traced passes, s
	reqMS       map[string][]float64 // per request, untraced passes
	reqProbes   map[string][]float64 // the same, in probe times
	traces      []*tracer
}

func (r *runner) fail(what string, err error) {
	msg := fmt.Sprintf("%s: %v", what, err)
	fmt.Fprintln(os.Stderr, "migperf: FAIL", msg)
	r.failures = append(r.failures, msg)
}

// measure runs set-up, the warm-up pass and the measured passes.
func (r *runner) measure(ctx context.Context, seconds float64, traced bool) (*measurement, error) {
	var gens []float64
	for i := 0; i < genRepeats; i++ {
		t0 := time.Now()
		reqs, err := r.w.gen(r.seed)
		gens = append(gens, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("generating %s inputs: %w", r.w.name, err)
		}
		if r.reqs != nil && !sameInputs(r.reqs, reqs) {
			r.fail("inputs", errors.New("one seed generated different input bytes"))
		}
		r.reqs = reqs
	}
	m := &measurement{reqMS: map[string][]float64{}, reqProbes: map[string][]float64{}}
	warm := r.pass(ctx, nil, nil)
	m.setupS = median(gens) + warm

	start := time.Now()
	for i := 0; ; i++ {
		if traced && i%2 == 1 {
			tr := newTracer(start, i)
			m.tracedWalls = append(m.tracedWalls, r.pass(ctx, tr, nil))
			m.traces = append(m.traces, tr)
		} else {
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			m.walls = append(m.walls, r.pass(ctx, nil, m))
			peak, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			m.peaksMB = append(m.peaksMB, peak)
		}
		done := len(m.walls) >= minPasses
		if traced {
			done = len(m.walls) >= 2 && len(m.tracedWalls) >= 2
		}
		if done && time.Since(start).Seconds() >= seconds {
			return m, nil
		}
	}
}

// pass runs every request once, in an order drawn from the seed, and
// returns its wall time in seconds without the benchmark's own work:
// checking, the speed probe, and a forced GC that also returns free memory
// to the OS before each request, so that no request pays for the garbage
// of the one before it and each starts from the same resident set. m, when
// not nil, collects each request's time.
func (r *runner) pass(ctx context.Context, tr *tracer, m *measurement) float64 {
	r.env.tr = tr
	var own time.Duration
	start := time.Now()
	for _, i := range r.order.perm(len(r.reqs)) {
		req := &r.reqs[i]
		g0 := time.Now()
		debug.FreeOSMemory()
		probeMS := r.probe.run()
		own += time.Since(g0)
		id := tr.begin("request")
		t0 := time.Now()
		outs, err := r.w.run(ctx, r.env, req)
		dt := time.Since(t0)
		tr.end(id)

		c0 := time.Now()
		r.attempted++
		if err == nil {
			err = r.check(req, outs)
		}
		if err != nil {
			r.fail(req.name, err)
		}
		if m != nil {
			ms := float64(dt) / 1e6
			m.reqMS[req.name] = append(m.reqMS[req.name], ms)
			m.reqProbes[req.name] = append(m.reqProbes[req.name], ms/probeMS)
		}
		own += time.Since(c0)
	}
	return (time.Since(start) - own).Seconds()
}

// check holds every result of a request to the first one: the first is
// simulated against the input by the benchmark's own evaluator and
// measured, every later one must repeat its bytes and verdicts.
func (r *runner) check(req *request, outs []output) error {
	got := make([]outputRecord, len(outs))
	for i, o := range outs {
		sum := sha256.Sum256([]byte(o.blif))
		got[i] = outputRecord{Leg: o.leg, SHA256: hex.EncodeToString(sum[:]), Verdict: o.verdict}
	}
	rec, seen := r.records[req.name]
	if !seen {
		for i, o := range outs {
			if err := simCheck(string(req.src), o.blif, checkSeed(r.seed, req.name, o.leg), simWords); err != nil {
				return fmt.Errorf("%s output: %w", o.leg, err)
			}
			m := logic.ToMIG(o.net)
			got[i].Size, got[i].Depth = m.Size(), m.Depth()
		}
		r.records[req.name] = &requestRecord{Name: req.name, Outputs: got}
		return nil
	}
	if len(got) != len(rec.Outputs) {
		return fmt.Errorf("nondeterministic: %d outputs, first run had %d", len(got), len(rec.Outputs))
	}
	for i, g := range got {
		if w := rec.Outputs[i]; g.Leg != w.Leg || g.SHA256 != w.SHA256 || g.Verdict != w.Verdict {
			return fmt.Errorf("nondeterministic: %s output %.12s (%s) repeats %s output %.12s (%s)",
				g.Leg, g.SHA256, g.Verdict, w.Leg, w.SHA256, w.Verdict)
		}
	}
	return nil
}

// checkSeed derives the check patterns of one output from the run seed.
func checkSeed(seed uint64, name, leg string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, name+"/"+leg)
	return seed ^ h.Sum64()
}

func sameInputs(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].name != b[i].name || string(a[i].src) != string(b[i].src) {
			return false
		}
	}
	return true
}

// provenance says where and how a result was measured, with the run's
// determinism record.
type provenance struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Traced         bool               `json:"traced"`
	NProc          int                `json:"nproc"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	Workers        int                `json:"workers"`
	GoVersion      string             `json:"go_version"`
	Commit         string             `json:"commit"`
	SourceSHA256   string             `json:"source_sha256"`
	Passes         int                `json:"passes"`
	PassWallsS     []float64          `json:"pass_walls_s,omitempty"` // untraced measured passes
	RequestMS      map[string]float64 `json:"request_ms,omitempty"`   // median per request
	UnattributedMS *float64           `json:"unattributed_ms,omitempty"`
	Verdicts       map[string]int     `json:"verdicts"`
	Failures       []string           `json:"failures,omitempty"`
	Requests       []*requestRecord   `json:"requests"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runAndReport(w *workload, seed uint64, seconds float64, traced bool, digest string) error {
	workers := runtime.NumCPU()
	e, err := newEnv(workers)
	if err != nil {
		return err
	}
	r := &runner{w: w, seed: seed, env: e, order: splitmix(seed), records: map[string]*requestRecord{}}
	m, err := r.measure(context.Background(), seconds, traced)
	if err != nil {
		return err
	}

	prov := provenance{
		Workload: w.name, Seed: seed, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), Commit: commit(), SourceSHA256: digest,
		Passes: len(m.walls) + len(m.tracedWalls), Verdicts: map[string]int{},
		RequestMS: map[string]float64{}, PassWallsS: m.walls,
	}
	for name, ts := range m.reqMS {
		prov.RequestMS[name] = median(ts)
	}
	for _, rec := range r.records {
		prov.Requests = append(prov.Requests, rec)
		for _, o := range rec.Outputs {
			if o.Verdict != "" {
				prov.Verdicts[o.Verdict]++
			}
		}
	}
	sort.Slice(prov.Requests, func(i, j int) bool { return prov.Requests[i].Name < prov.Requests[j].Name })
	if err := r.compareRecord(digest, prov.Requests); err != nil {
		r.fail("determinism", err)
	}

	var metrics map[string]metricValue
	if traced {
		metrics = layerMetrics(m, workers, len(r.failures), r.attempted)
		u := metrics["trace.unattributed_ms"].Value
		prov.UnattributedMS = &u
		if err := writeSpans(w.name, seed, m.traces); err != nil {
			return err
		}
	} else {
		metrics, err = e2eMetrics(m, prov.Requests)
		if err != nil {
			r.fail("metrics", err)
		}
	}
	prov.Failures = r.failures

	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    min(len(r.failures), r.attempted),
		Metrics:   metrics,
	}
	printTable(os.Stderr, w.name, metrics)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// passCost sums the requests' median costs into the cost of one pass and
// takes their geometric mean. Per-request medians reject the slow and fast
// spells of a shared machine that whole-pass times would average in.
func passCost(perReq map[string][]float64) (sum, geo float64) {
	var meds []float64
	for _, xs := range perReq {
		meds = append(meds, median(xs))
		sum += meds[len(meds)-1]
	}
	return sum, geomean(meds)
}

// e2eMetrics computes the end-to-end metrics of an untraced run. Request
// costs are in probe times: each request's time over the time of the speed
// probe run just before it.
func e2eMetrics(m *measurement, recs []*requestRecord) (map[string]metricValue, error) {
	var sizes, depths []float64
	for _, rec := range recs {
		for _, o := range rec.Outputs {
			sizes = append(sizes, float64(o.Size))
			depths = append(depths, float64(o.Depth))
		}
	}
	wall, geo := passCost(m.reqProbes)
	vals := map[string]float64{
		"setup_s":             m.setupS,
		"wall_probes":         wall,
		"time_geomean_probes": geo,
		"size_geomean":        geomean(sizes),
		"depth_geomean":       geomean(depths),
		"peak_rss_mb":         slices.Min(m.peaksMB),
	}
	out := map[string]metricValue{}
	for _, mt := range endToEnd {
		v := vals[mt.Name]
		if !(v > 0) || math.IsInf(v, 0) {
			return out, fmt.Errorf("%s measured %v", mt.Name, v)
		}
		out[mt.Name] = metricValue{v, mt.Unit}
	}
	return out, nil
}

// layerMetrics computes the per-layer metrics of a traced run: the median
// over traced passes of each pass total; the wall-clock cost of a pass and
// the geometric mean of request times, from the untraced passes; the
// tracing overhead as the traced passes' median wall over the untraced
// passes' median wall, less one; and the share of requests that failed.
func layerMetrics(m *measurement, workers, failed, attempted int) map[string]metricValue {
	perPass := make([]map[string]float64, len(m.traces))
	for i, tr := range m.traces {
		perPass[i] = tr.totals()
		derive(perPass[i], workers)
	}
	out := map[string]metricValue{}
	for _, mt := range perLayer {
		var xs []float64
		for _, t := range perPass {
			xs = append(xs, t[mt.Name])
		}
		out[mt.Name] = metricValue{finite(median(xs)), mt.Unit}
	}
	wallMS, geoMS := passCost(m.reqMS)
	out["run.wall_s"] = metricValue{finite(wallMS / 1000), "s"}
	out["run.time_geomean_ms"] = metricValue{finite(geoMS), "ms"}
	out["trace.overhead_ratio"] = metricValue{finite(median(m.tracedWalls)/median(m.walls) - 1), "ratio"}
	out["check.failed_ratio"] = metricValue{finite(float64(failed) / float64(attempted)), "ratio"}
	return out
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM), so
// that each pass measures its own peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("reading VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// printTable writes the metrics for a reader: name, value, unit.
func printTable(w io.Writer, workload string, metrics map[string]metricValue) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-16s %-32s %14.4f %s\n", workload, n, metrics[n].Value, metrics[n].Unit)
	}
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every file under root outside hidden directories: the
// identity of the sources a determinism record belongs to, with or without
// git.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}

// compareRecord checks the run's outputs against the record an earlier
// run of the same sources, workload and seed left, or leaves one.
func (r *runner) compareRecord(digest string, recs []*requestRecord) error {
	path := filepath.Join(stateDir, "records", fmt.Sprintf("%.16s-%s-%d.json", digest, r.w.name, r.seed))
	cur, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, cur, 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != string(cur) {
		return fmt.Errorf("outputs differ from an earlier run of the same sources and seed (%s)", path)
	}
	return nil
}

// writeSpans writes a traced run's spans, once, at its end.
func writeSpans(workload string, seed uint64, traces []*tracer) error {
	var spans []span
	for _, t := range traces {
		spans = append(spans, t.spans...)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(stateDir, fmt.Sprintf("spans-%s-%d.json", workload, seed)), b, 0o644)
}
