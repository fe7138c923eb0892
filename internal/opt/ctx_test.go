package opt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunCancelsBetweenPasses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	p := &Pipeline[fake]{Passes: []Pass[fake]{
		New("first", func(g fake) fake { ran++; cancel(); return g }),
		New("second", func(g fake) fake { ran++; return g }),
	}}
	got, trace, err := p.Run(ctx, fake{size: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d passes, want 1 (second must not start)", ran)
	}
	if len(trace) != 1 || got.size != 10 {
		t.Fatalf("trace %d steps, got %+v", len(trace), got)
	}
}

func TestRunCancelsInsidePass(t *testing.T) {
	// A pass observes cancellation mid-pass and aborts the run.
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline[fake]{Passes: []Pass[fake]{{
		Name: "ctxpass",
		Apply: func(c context.Context, g fake) (fake, error) {
			cancel()
			return g, c.Err()
		},
	}}}
	_, _, err := p.Run(ctx, fake{size: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Under the background context the same pipeline completes.
	if _, _, err := p.Run(context.Background(), fake{size: 10}); err != nil {
		// cancel() above cancelled the other context, not this run's.
		t.Fatalf("background run failed: %v", err)
	}
}

func TestParsedPassKeepsContext(t *testing.T) {
	// Parse relabels each pass with its statement text; the relabeled pass
	// still runs under the caller's context.
	saw := 0
	r := NewRegistry[fake]()
	r.Register("orig", "", "orig", func([]int) (Pass[fake], error) {
		return Pass[fake]{Name: "orig", Apply: func(ctx context.Context, g fake) (fake, error) {
			saw = WorkersCtx(ctx)
			return g, nil
		}}, nil
	})
	p, err := Parse(r, "orig()")
	if err != nil {
		t.Fatal(err)
	}
	if p.Passes[0].Name != "orig()" {
		t.Fatalf("name = %q", p.Passes[0].Name)
	}
	if _, _, err := p.Run(ContextWithWorkers(context.Background(), 4), fake{}); err != nil {
		t.Fatal(err)
	}
	if saw != 4 {
		t.Fatalf("parsed pass saw a budget of %d, want the caller's 4", saw)
	}
}

func TestBestAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cycles := 0
	b := Best("b", 100, func(cand, best fake) bool { return cand.size < best.size },
		func(cycle int) []Pass[fake] {
			return []Pass[fake]{New("step", func(g fake) fake {
				cycles++
				if cycles == 3 {
					cancel()
				}
				g.size--
				return g
			})}
		})
	got, err := b.Apply(ctx, fake{size: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if cycles > 4 {
		t.Fatalf("ran %d cycles after cancellation", cycles)
	}
	// The incumbent returned alongside the error is the best completed one.
	if got.size > 100 {
		t.Fatalf("got %+v", got)
	}
}

func TestForEachCancel(t *testing.T) {
	// Uncancellable context: all items run.
	var n atomic.Int64
	if err := ForEach(context.Background(), 100, 4, func(int) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d items", n.Load())
	}
	// Cancel mid-sweep: the sweep stops early and reports the error.
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEach(ctx, 10000, jobs, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d err = %v", jobs, err)
		}
		if ran.Load() == 10000 {
			t.Fatalf("jobs=%d: cancellation did not stop the sweep", jobs)
		}
	}
}

func TestForEach(t *testing.T) {
	ctx := context.Background()
	var sum atomic.Int64
	if err := ForEach(ctx, 100, 7, func(i int) { sum.Add(int64(i)) }); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 4950 {
		t.Fatalf("parallel sum = %d", got)
	}
	sum.Store(0)
	ForEach(ctx, 10, 1, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 45 {
		t.Fatalf("serial sum = %d", got)
	}
	ForEach(ctx, 0, 4, func(int) { t.Fatal("no work expected") })
	// More workers than items must not deadlock.
	sum.Store(0)
	ForEach(ctx, 2, 16, func(i int) { sum.Add(int64(i + 1)) })
	if got := sum.Load(); got != 3 {
		t.Fatalf("overprovisioned sum = %d", got)
	}
}

func TestContextWithWorkers(t *testing.T) {
	if got := WorkersCtx(context.Background()); got != 1 {
		t.Fatalf("budget without a context value = %d, want 1 (serial)", got)
	}
	ctx := ContextWithWorkers(context.Background(), 7)
	if got := WorkersCtx(ctx); got != 7 {
		t.Fatalf("ctx budget = %d", got)
	}
	if got := WorkersCtx(ContextWithWorkers(context.Background(), -3)); got != 1 {
		t.Fatalf("clamped budget = %d", got)
	}
}
