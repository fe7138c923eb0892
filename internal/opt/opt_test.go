package opt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// fake is a minimal Graph for engine tests: passes rewrite its metrics.
type fake struct {
	size, depth int
	act         float64
}

func (f fake) Size() int                  { return f.size }
func (f fake) Depth() int                 { return f.depth }
func (f fake) Activity([]float64) float64 { return f.act }
func (f fake) ToNetwork() *netlist.Network {
	// A constant-0 single-output network named by the graph's size; enough
	// for Checker plumbing.
	n := netlist.New(fmt.Sprintf("size%d", f.size))
	n.AddOutput("o", netlist.SigConst0)
	return n
}

func shrink(by int) Pass[fake] {
	return New("shrink", func(g fake) fake {
		g.size -= by
		return g
	})
}

func deepen(by int) Pass[fake] {
	return New("deepen", func(g fake) fake {
		g.depth += by
		return g
	})
}

func TestPipelineTrace(t *testing.T) {
	p := &Pipeline[fake]{Passes: []Pass[fake]{shrink(5), deepen(2), shrink(1)}}
	got, trace, err := p.Run(context.Background(), fake{size: 10, depth: 3, act: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got.size != 4 || got.depth != 5 {
		t.Fatalf("result = %+v", got)
	}
	if len(trace) != 3 {
		t.Fatalf("trace has %d steps", len(trace))
	}
	if trace[0].Pass != "shrink" || trace[0].SizeBefore != 10 || trace[0].SizeAfter != 5 {
		t.Fatalf("step 0 = %+v", trace[0])
	}
	if trace[1].DepthBefore != 3 || trace[1].DepthAfter != 5 {
		t.Fatalf("step 1 = %+v", trace[1])
	}
	if trace[2].SizeBefore != 5 || trace[2].SizeAfter != 4 {
		t.Fatalf("step 2 = %+v", trace[2])
	}
	if trace[0].Equiv != "" {
		t.Fatal("no checker: Equiv must be empty")
	}
	if !strings.Contains(trace.Format(), "shrink") {
		t.Fatal("Format must include pass names")
	}
}

// counting is a fake that counts its Size, Depth and Activity calls.
type counting struct {
	fake
	evals *[3]int
}

func (c counting) Size() int                  { c.evals[0]++; return c.size }
func (c counting) Depth() int                 { c.evals[1]++; return c.depth }
func (c counting) Activity([]float64) float64 { c.evals[2]++; return c.act }

// A step's before-metrics are the previous step's after-metrics on the same
// graph, so a run of N passes evaluates each metric N+1 times (none when
// there is no pass), and the trace still chains.
func TestRunMeasuresEachGraphOnce(t *testing.T) {
	grow := New("grow", func(g counting) counting {
		g.size++
		g.depth += 2
		g.act += 0.5
		return g
	})
	for _, n := range []int{0, 1, 4} {
		var evals [3]int
		p := &Pipeline[counting]{}
		for i := 0; i < n; i++ {
			p.Append(grow)
		}
		_, trace, err := p.Run(context.Background(), counting{fake{size: 10, depth: 3, act: 1.5}, &evals})
		if err != nil {
			t.Fatal(err)
		}
		want := n + 1
		if n == 0 {
			want = 0
		}
		if evals != [3]int{want, want, want} {
			t.Errorf("%d passes: Size/Depth/Activity evaluated %v times, want %d each", n, evals, want)
		}
		for i, st := range trace {
			if st.SizeBefore != 10+i || st.DepthBefore != 3+2*i || st.ActivityBefore != 1.5+0.5*float64(i) ||
				st.SizeAfter != 11+i || st.DepthAfter != 5+2*i || st.ActivityAfter != 2+0.5*float64(i) {
				t.Errorf("%d passes: step %d = %+v", n, i, st)
			}
		}
	}
}

// TestPipelineCheckAborts: each check proves a pass against the network
// the previous check accepted (the input's network on the first call), and
// the first rejection aborts the run.
func TestPipelineCheckAborts(t *testing.T) {
	var accepted *netlist.Network
	calls := 0
	p := &Pipeline[fake]{
		Passes: []Pass[fake]{shrink(1), shrink(1), shrink(1), shrink(1)},
		Check: func(ctx context.Context, ref, got *netlist.Network) (CheckStats, error) {
			calls++
			if calls == 1 && ref.Name != "size10" {
				t.Errorf("call 1: ref is %q, want the input's network size10", ref.Name)
			}
			if calls > 1 && ref != accepted {
				t.Errorf("call %d: ref is %q, want the network call %d accepted", calls, ref.Name, calls-1)
			}
			if calls == 3 {
				return CheckStats{}, errors.New("boom")
			}
			accepted = got
			return CheckStats{}, nil
		},
	}
	got, trace, err := p.Run(context.Background(), fake{size: 10})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// The run aborts at the third pass, returning the last good graph.
	if got.size != 8 {
		t.Fatalf("got = %+v, want last good size 8", got)
	}
	if calls != 3 || len(trace) != 3 {
		t.Fatalf("%d checks, trace has %d steps, want 3 each", calls, len(trace))
	}
	if trace[0].Equiv != "ok" || trace[1].Equiv != "ok" || !strings.Contains(trace[2].Equiv, "boom") {
		t.Fatalf("trace equiv = %q, %q, %q", trace[0].Equiv, trace[1].Equiv, trace[2].Equiv)
	}
}

func TestBestTracksIncumbentAndCarriesCurrent(t *testing.T) {
	better := func(cand, best fake) bool { return cand.size < best.size }
	// Cycle 0 worsens (+5), cycle 1 improves from the worsened graph (-7):
	// cur goes 10 -> 15 -> 8, so Best must return 8, proving the working
	// graph is carried through the worsening cycle.
	pass := Best("b", 2, better, func(cycle int) []Pass[fake] {
		if cycle == 0 {
			return []Pass[fake]{shrink(-5)}
		}
		return []Pass[fake]{shrink(7)}
	})
	if got, _ := pass.Apply(context.Background(), fake{size: 10}); got.size != 8 {
		t.Fatalf("best = %+v, want size 8", got)
	}
	// A single worsening cycle returns the untouched input as incumbent.
	worse := Best("w", 1, better, func(int) []Pass[fake] {
		return []Pass[fake]{shrink(-5)}
	})
	if got, _ := worse.Apply(context.Background(), fake{size: 10}); got.size != 10 {
		t.Fatalf("incumbent = %+v, want input size 10", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry[fake]()
	r.Register("shrink", "by", "shrink(by=1)", func(args []int) (Pass[fake], error) {
		a, err := IntArgs(args, 1)
		if err != nil {
			return Pass[fake]{}, err
		}
		return shrink(a[0]), nil
	})
	if got := r.Names(); len(got) != 1 || got[0] != "shrink" {
		t.Fatalf("names = %v", got)
	}
	p, err := r.New("shrink", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := p.Apply(context.Background(), fake{size: 10}); g.size != 7 {
		t.Fatalf("apply = %+v", g)
	}
	if _, err := r.New("nope"); err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("unknown pass error = %v", err)
	}
	if _, err := r.New("shrink", 1, 2); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("arity error = %v", err)
	}
	if r.MustNew("shrink").Name != "shrink" {
		t.Fatal("MustNew")
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	r := NewRegistry[fake]()
	r.Register("ok-name", "", "", func([]int) (Pass[fake], error) { return shrink(1), nil })
	for _, bad := range []string{"", "Upper", "1start", "sp ace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) must panic", bad)
				}
			}()
			r.Register(bad, "", "", func([]int) (Pass[fake], error) { return shrink(1), nil })
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register must panic")
			}
		}()
		r.Register("ok-name", "", "", func([]int) (Pass[fake], error) { return shrink(1), nil })
	}()
}

func TestIntArgs(t *testing.T) {
	got, err := IntArgs([]int{7}, 3, 8)
	if err != nil || got[0] != 7 || got[1] != 8 {
		t.Fatalf("IntArgs = %v, %v", got, err)
	}
	if _, err := IntArgs([]int{1, 2, 3}, 3, 8); err == nil {
		t.Fatal("too many args must error")
	}
	got, err = IntArgs(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("IntArgs() = %v, %v", got, err)
	}
}

func TestIntArgsMin(t *testing.T) {
	got, err := IntArgsMin([]int{2}, 1, 3, 8)
	if err != nil || got[0] != 2 || got[1] != 8 {
		t.Fatalf("IntArgsMin = %v, %v", got, err)
	}
	if _, err := IntArgsMin([]int{0}, 1, 3); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Fatalf("below-min err = %v", err)
	}
	if _, err := IntArgsMin([]int{3, -2}, 0, 3, 8); err == nil || !strings.Contains(err.Error(), "arg 2") {
		t.Fatalf("second-arg err = %v", err)
	}
	// Defaults are not range-checked — only user-provided values are.
	if _, err := IntArgsMin(nil, 1, 0); err != nil {
		t.Fatalf("defaults must be exempt: %v", err)
	}
}
