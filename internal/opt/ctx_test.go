package opt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunContextCancelsBetweenPasses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	p := &Pipeline[fake]{Passes: []Pass[fake]{
		New("first", func(g fake) fake { ran++; cancel(); return g }),
		New("second", func(g fake) fake { ran++; return g }),
	}}
	got, trace, err := p.RunContext(ctx, fake{size: 10})
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

func TestRunContextCtxPass(t *testing.T) {
	// A ctx pass observes cancellation mid-pass and aborts the run.
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline[fake]{Passes: []Pass[fake]{
		NewCtx("ctxpass", func(c context.Context, g fake) (fake, error) {
			cancel()
			return g, c.Err()
		}),
	}}
	_, _, err := p.RunContext(ctx, fake{size: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Under the background context the same pipeline completes.
	if _, _, err := p.Run(fake{size: 10}); err != nil {
		// cancel() above cancelled the other context, not this run's.
		t.Fatalf("background run failed: %v", err)
	}
}

func TestRenamePreservesCtxAwareness(t *testing.T) {
	saw := false
	p := Rename("label", NewCtx("orig", func(ctx context.Context, g fake) (fake, error) {
		saw = ctx.Value(workersKey{}) != nil
		return g, nil
	}))
	if p.Name() != "label" {
		t.Fatalf("name = %q", p.Name())
	}
	cp, ok := p.(CtxPass[fake])
	if !ok {
		t.Fatal("Rename dropped context awareness")
	}
	if _, err := cp.ApplyCtx(ContextWithWorkers(context.Background(), 4), fake{}); err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Fatal("renamed pass did not receive the caller's context")
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
	got, err := b.(CtxPass[fake]).ApplyCtx(ctx, fake{size: 100})
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

func TestForEachCtx(t *testing.T) {
	// Uncancellable context: all items run.
	var n atomic.Int64
	if err := ForEachCtx(context.Background(), 100, 4, func(int) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d items", n.Load())
	}
	// Cancel mid-sweep: the sweep stops early and reports the error.
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachCtx(ctx, 10000, jobs, func(i int) {
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
	var sum atomic.Int64
	ForEach(100, 7, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 4950 {
		t.Fatalf("parallel sum = %d", got)
	}
	sum.Store(0)
	ForEach(10, 1, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 45 {
		t.Fatalf("serial sum = %d", got)
	}
	ForEach(0, 4, func(int) { t.Fatal("no work expected") })
	// More workers than items must not deadlock.
	sum.Store(0)
	ForEach(2, 16, func(i int) { sum.Add(int64(i + 1)) })
	if got := sum.Load(); got != 3 {
		t.Fatalf("overprovisioned sum = %d", got)
	}
}

func TestContextWithWorkers(t *testing.T) {
	if got := WorkersCtx(context.Background()); got != Workers() {
		t.Fatalf("fallback = %d, want process budget %d", got, Workers())
	}
	ctx := ContextWithWorkers(context.Background(), 7)
	if got := WorkersCtx(ctx); got != 7 {
		t.Fatalf("ctx budget = %d", got)
	}
	if got := WorkersCtx(ContextWithWorkers(context.Background(), -3)); got != 1 {
		t.Fatalf("clamped budget = %d", got)
	}
}
