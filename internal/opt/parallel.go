package opt

// Worker-pool plumbing for parallel-safe passes. The batch engine
// (logic/bench) distributes whole circuits over workers; passes that
// parallelize *inside* one graph (the MIG's window-parallel rewriting) need
// the same machinery below the pipeline layer, so it lives here, free of
// representation dependencies.
//
// The worker budget reaches a pass only through its context: the CLIs'
// -jobs flags, logic.WithWorkers and migd's per-request workers field all
// set it with ContextWithWorkers. Parallel passes must stay deterministic:
// the worker count may change how work is scheduled, never what is
// computed.

import (
	"context"
	"sync"
)

// workersKey carries a per-context worker budget (see ContextWithWorkers).
type workersKey struct{}

// ContextWithWorkers returns a context carrying a worker budget for
// parallel-safe passes run under it. Values below 1 are clamped to 1
// (serial). Each session or request carries its own budget, so concurrent
// runs in one process do not share one.
func ContextWithWorkers(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// WorkersCtx returns the context's worker budget, or 1 (serial) when the
// context carries none.
func WorkersCtx(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey{}).(int); ok {
		return n
	}
	return 1
}

// ForEach runs fn(0), ..., fn(n-1) on up to jobs workers; jobs <= 1 runs
// serially on the calling goroutine. Work items are handed out through a
// channel, so uneven item costs balance across workers. It stops handing
// out work once ctx is cancelled; items already started run to completion
// (work functions are not interrupted mid-item). Returns ctx.Err() when the
// sweep was cut short, nil when every item ran. An uncancellable ctx has a
// nil Done channel, which never fires in the feed's select.
func ForEach(ctx context.Context, n, jobs int, fn func(i int)) error {
	done := ctx.Done()
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-done:
			break feed
		}
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}
