package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/logic"
)

func TestProfileTracesAggregates(t *testing.T) {
	traces := []logic.Trace{
		{
			{Pass: "eliminate", Seconds: 0.2, SizeBefore: 100, SizeAfter: 80, DepthBefore: 10, DepthAfter: 10},
			{Pass: "reshape-depth", Seconds: 0.6, SizeBefore: 80, SizeAfter: 85, DepthBefore: 10, DepthAfter: 7},
		},
		{
			{Pass: "eliminate", Seconds: 0.2, SizeBefore: 50, SizeAfter: 45, DepthBefore: 8, DepthAfter: 8},
		},
	}
	got := ProfileTraces(traces)
	if len(got) != 2 {
		t.Fatalf("got %d profiles, want 2", len(got))
	}
	// Sorted by total time descending: reshape-depth (0.6) first.
	if got[0].Pass != "reshape-depth" || got[1].Pass != "eliminate" {
		t.Fatalf("order = %s, %s; want reshape-depth, eliminate", got[0].Pass, got[1].Pass)
	}
	el := got[1]
	if el.Runs != 2 {
		t.Errorf("eliminate runs = %d, want 2", el.Runs)
	}
	if want := 0.4; el.Seconds != want {
		t.Errorf("eliminate seconds = %v, want %v", el.Seconds, want)
	}
	if want := 0.2; el.MeanSecs != want {
		t.Errorf("eliminate mean = %v, want %v", el.MeanSecs, want)
	}
	if want := -25; el.SizeDelta != want {
		t.Errorf("eliminate size delta = %d, want %d", el.SizeDelta, want)
	}
	if want := 40.0; el.Percent != want {
		t.Errorf("eliminate percent = %v, want %v", el.Percent, want)
	}
	rd := got[0]
	if rd.DepthDelta != -3 || rd.SizeDelta != +5 {
		t.Errorf("reshape-depth deltas = %d/%d, want +5/-3", rd.SizeDelta, rd.DepthDelta)
	}
}

func TestProfileTracesEmpty(t *testing.T) {
	if got := ProfileTraces(nil); len(got) != 0 {
		t.Fatalf("ProfileTraces(nil) = %v, want empty", got)
	}
}

func TestFormatPassProfile(t *testing.T) {
	out := FormatPassProfile(ProfileTraces([]logic.Trace{{
		{Pass: "cleanup", Seconds: 0.1, SizeBefore: 10, SizeAfter: 9},
	}}))
	for _, want := range []string{"pass", "cleanup", "total", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted profile missing %q:\n%s", want, out)
		}
	}
}

func TestLegRecordsTrace(t *testing.T) {
	n, err := Circuit("b9")
	if err != nil {
		t.Fatal(err)
	}
	m := MIGOptimizeNet(n, Config{Effort: 1})
	if !m.OK {
		t.Fatal("MIG optimization failed")
	}
	if len(m.Trace) == 0 {
		t.Fatal("MIG leg recorded no trace")
	}
	for i, s := range m.Trace {
		if s.Pass == "" {
			t.Fatalf("trace step %d has empty pass name", i)
		}
	}
	// The trace stays out of the JSON (baseline compatibility).
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "trace") || strings.Contains(string(b), m.Trace[0].Pass) {
		t.Fatalf("OptMetrics JSON carries the trace: %s", b)
	}
}
