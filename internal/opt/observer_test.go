package opt

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sweep"
)

func TestObserverSeesStepsInOrder(t *testing.T) {
	p := &Pipeline[fake]{Passes: []Pass[fake]{shrink(5), deepen(2), shrink(1)}}
	var seen []Step
	ctx := ContextWithObserver(context.Background(), func(s Step) { seen = append(seen, s) })
	_, trace, err := p.Run(ctx, fake{size: 10, depth: 3, act: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []Step(trace)) {
		t.Fatalf("observed steps diverge from trace:\nobserved %+v\ntrace    %+v", seen, trace)
	}
}

func TestObserverSeesEquivFailureStep(t *testing.T) {
	calls := 0
	p := &Pipeline[fake]{
		Passes: []Pass[fake]{shrink(1), shrink(1), shrink(1)},
		Check: func(ctx context.Context, ref, got *netlist.Network) (CheckStats, error) {
			calls++
			if calls == 2 {
				return CheckStats{}, errors.New("boom")
			}
			return CheckStats{}, nil
		},
	}
	var seen []Step
	ctx := ContextWithObserver(context.Background(), func(s Step) { seen = append(seen, s) })
	_, trace, err := p.Run(ctx, fake{size: 10})
	if err == nil {
		t.Fatal("expected equivalence failure")
	}
	if len(seen) != len(trace) || len(seen) != 2 {
		t.Fatalf("observed %d steps, trace has %d, want 2 each", len(seen), len(trace))
	}
	if !strings.Contains(seen[1].Equiv, "boom") {
		t.Fatalf("failure step not observed: %+v", seen[1])
	}
}

func TestObserverNilAndAbsent(t *testing.T) {
	if got := ObserverFrom(context.Background()); got != nil {
		t.Fatal("ObserverFrom on a bare context must be nil")
	}
	ctx := ContextWithObserver(context.Background(), nil)
	if ctx != context.Background() {
		t.Fatal("installing a nil observer must be a no-op")
	}
	// Cancelled steps never commit and are never observed.
	p := &Pipeline[fake]{Passes: []Pass[fake]{shrink(1), shrink(1)}}
	cctx, cancel := context.WithCancel(context.Background())
	calls := 0
	octx := ContextWithObserver(cctx, func(Step) {
		calls++
		cancel() // kill the run after the first committed step
	})
	_, trace, err := p.Run(octx, fake{size: 10})
	if err == nil {
		t.Fatal("expected cancellation")
	}
	if calls != 1 || len(trace) != 1 {
		t.Fatalf("calls=%d trace=%d, want 1 each", calls, len(trace))
	}
}

// TestObserverNoExtraAllocs pins the acceptance criterion that the observer
// hook adds no allocations to the pass-commit loop: a pipeline run with an
// installed (no-op) observer allocates exactly as much as one without.
func TestObserverNoExtraAllocs(t *testing.T) {
	p := &Pipeline[fake]{Passes: []Pass[fake]{shrink(0), deepen(0), shrink(0), deepen(0)}}
	g := fake{size: 100, depth: 10}
	bare := sweep.ContextWithPool(context.Background(), sweep.NewCexPool(0))
	obsCtx := ContextWithObserver(bare, func(Step) {})

	run := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, _, err := p.Run(ctx, g); err != nil {
				t.Fatal(err)
			}
		})
	}
	without := run(bare)
	with := run(obsCtx)
	if with > without {
		t.Fatalf("observer adds allocations: %v with vs %v without", with, without)
	}
}

func BenchmarkPipelineObserved(b *testing.B) {
	p := &Pipeline[fake]{Passes: []Pass[fake]{shrink(0), deepen(0), shrink(0), deepen(0)}}
	g := fake{size: 100, depth: 10}
	ctx := ContextWithObserver(
		sweep.ContextWithPool(context.Background(), sweep.NewCexPool(0)),
		func(Step) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Run(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}
