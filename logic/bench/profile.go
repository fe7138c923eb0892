package bench

// Pass-level time profile over a set of optimization traces: where the
// suite's wall clock goes, pass by pass. migbench -pass-profile feeds it
// the per-circuit traces of the MIG leg (OptMetrics.Trace).

import (
	"fmt"
	"sort"
	"strings"

	"repro/logic"
)

// PassProfile aggregates every committed step of one pass name across a
// set of runs.
type PassProfile struct {
	Pass       string  `json:"pass"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`      // total wall time inside the pass
	MeanSecs   float64 `json:"mean_seconds"` // Seconds / Runs
	Percent    float64 `json:"percent"`      // share of the suite's total pass time
	SizeDelta  int     `json:"size_delta"`   // cumulative after-before (negative = shrink)
	DepthDelta int     `json:"depth_delta"`
}

// ProfileTraces folds per-circuit traces into one profile per pass name,
// sorted by total time descending (ties by name, so output is stable).
func ProfileTraces(traces []logic.Trace) []PassProfile {
	byPass := make(map[string]*PassProfile)
	total := 0.0
	for _, tr := range traces {
		for _, s := range tr {
			p := byPass[s.Pass]
			if p == nil {
				p = &PassProfile{Pass: s.Pass}
				byPass[s.Pass] = p
			}
			p.Runs++
			p.Seconds += s.Seconds
			p.SizeDelta += s.SizeAfter - s.SizeBefore
			p.DepthDelta += s.DepthAfter - s.DepthBefore
			total += s.Seconds
		}
	}
	out := make([]PassProfile, 0, len(byPass))
	for _, p := range byPass {
		if p.Runs > 0 {
			p.MeanSecs = p.Seconds / float64(p.Runs)
		}
		if total > 0 {
			p.Percent = 100 * p.Seconds / total
		}
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Pass < out[j].Pass
	})
	return out
}

// FormatPassProfile renders the profiles as an aligned table with a totals
// row.
func FormatPassProfile(profiles []PassProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %10s %10s %7s %9s %7s\n",
		"pass", "runs", "total(s)", "mean(ms)", "%time", "Δsize", "Δdepth")
	var runs, sizeD, depthD int
	var secs float64
	for _, p := range profiles {
		fmt.Fprintf(&b, "%-18s %6d %10.3f %10.3f %6.1f%% %+9d %+7d\n",
			p.Pass, p.Runs, p.Seconds, 1000*p.MeanSecs, p.Percent, p.SizeDelta, p.DepthDelta)
		runs += p.Runs
		secs += p.Seconds
		sizeD += p.SizeDelta
		depthD += p.DepthDelta
	}
	fmt.Fprintf(&b, "%-18s %6d %10.3f %10s %6.1f%% %+9d %+7d\n",
		"total", runs, secs, "", 100.0, sizeD, depthD)
	return b.String()
}
