package main

// Layer spans, recorded on the benchmark's side of the public API: every
// call into a layer is wrapped here, so the program under test carries no
// instrumentation. Spans stay in memory and are written out once, when the
// run ends.

import (
	"runtime"
	"strings"
	"time"

	"repro/logic"
)

// span is one timed layer call.
type span struct {
	Pass   int     `json:"pass"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a request's root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run began
	End    float64 `json:"end_ms"`
	Alloc  uint64  `json:"alloc_bytes"` // heap bytes allocated inside the span
}

// tracer records the spans and counters of one traced pass. Every method
// is a no-op on a nil tracer, which is what untraced passes use.
type tracer struct {
	t0       time.Time
	pass     int
	spans    []span
	open     []int
	counters map[string]float64
}

func newTracer(t0 time.Time, pass int) *tracer {
	return &tracer{t0: t0, pass: pass, counters: map[string]float64{}}
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

func (t *tracer) parent() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := len(t.spans)
	t.spans = append(t.spans, span{Pass: t.pass, ID: id, Parent: t.parent(), Name: name, Start: t.ms(time.Now()), Alloc: ms.TotalAlloc})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin opened and returns its length in ms.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = t.ms(time.Now())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Alloc = ms.TotalAlloc - s.Alloc
	t.open = t.open[:len(t.open)-1]
	return s.End - s.Start
}

// add accumulates a counter of the pass.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counters[name] += v
	}
}

// step records one committed pass of an optimization the tracer watches
// through logic.ContextWithObserver: a child span of the open layer span,
// reaching from the previous commit (or the call) to this one.
func (t *tracer) step(layer string, st logic.Step, from, to time.Time) {
	t.spans = append(t.spans, span{Pass: t.pass, ID: len(t.spans), Parent: t.parent(),
		Name: layer + ".step." + stepName(layer, st.Pass), Start: t.ms(from), End: t.ms(to)})
	t.countStep(layer, st)
}

// reportedStep records a step whose time only its report carries: the
// partitioned run re-emits the winning windows' steps after the windows
// ran concurrently, so callback gaps say nothing there.
func (t *tracer) reportedStep(layer string, st logic.Step) {
	t.add(layer+".step."+stepName(layer, st.Pass)+"_ms", st.Seconds*1000)
	t.countStep(layer, st)
}

func (t *tracer) countStep(layer string, st logic.Step) {
	t.add(layer+".steps", 1)
	if st.SizeAfter != st.SizeBefore || st.DepthAfter != st.DepthBefore {
		t.add(layer+".steps_effective", 1)
	}
}

// stepNames are the top-level passes of the flows the workloads run; any
// other pass is summed into "<layer>.step.other".
var stepNames = map[string][]string{
	"mig": {"cleanup", "alg2-depth", "eliminate-budget", "activity-recover", "pushup", "eliminate", "rewrite-npn", "reshape-size"},
	"aig": {"cleanup", "resyn2", "balance"},
}

func stepName(layer, pass string) string {
	if i := strings.IndexByte(pass, '('); i >= 0 {
		pass = pass[:i]
	}
	for _, n := range stepNames[layer] {
		if n == pass {
			return n
		}
	}
	return "other"
}

// msName is the per-layer metric a span's length adds to: a span
// "blif.decode" adds to "blif.decode_ms", a one-word layer "bds" to
// "bds.ms".
func msName(span string) string {
	if strings.Contains(span, ".") {
		return span + "_ms"
	}
	return span + ".ms"
}

// totals folds the pass's spans and counters into per-layer figures: the
// time of every span name, the heap allocated per layer, and the time
// requests spent outside any layer span.
func (t *tracer) totals() map[string]float64 {
	out := make(map[string]float64, len(t.counters)+len(t.spans))
	for k, v := range t.counters {
		out[k] = v
	}
	childMS := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childMS[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		if s.Name == "request" {
			out["trace.unattributed_ms"] += d - childMS[s.ID]
			continue
		}
		out[msName(s.Name)] += d
		if s.Alloc > 0 {
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer+".alloc_mb"] += float64(s.Alloc) / 1e6
		}
	}
	return out
}
