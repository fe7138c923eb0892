package partition_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mcnc"
	"repro/logic"
	"repro/logic/partition"
)

func load(t *testing.T, name string) logic.Network {
	t.Helper()
	n, err := mcnc.Generate(name)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return logic.FromNetlist(n)
}

// TestOptimizeWorkerAndKInvariance: for every k, the partitioned result is
// byte-identical across worker counts — the subsystem's core contract.
func TestOptimizeWorkerAndKInvariance(t *testing.T) {
	n := load(t, "my_adder")
	ctx := context.Background()
	for _, k := range []int{2, 4, 8} {
		var ref string
		for _, jobs := range []int{1, 2, 8} {
			out, _, err := partition.Optimize(ctx, n, partition.Config{
				K: k, Effort: 1, Workers: jobs,
			})
			if err != nil {
				t.Fatalf("k=%d jobs=%d: %v", k, jobs, err)
			}
			enc := out.EncodeBLIF()
			if jobs == 1 {
				ref = enc
				continue
			}
			if enc != ref {
				t.Fatalf("k=%d: jobs=%d output differs from jobs=1", k, jobs)
			}
		}
	}
}

// TestOptimizeUnknownObjective: a misspelled objective is an error, not
// a silent run of the default flow.
func TestOptimizeUnknownObjective(t *testing.T) {
	_, _, err := partition.Optimize(context.Background(), load(t, "my_adder"), partition.Config{K: 2, Objective: "sise"})
	if err == nil || !strings.Contains(err.Error(), `unknown objective "sise"`) {
		t.Fatalf("err = %v, want an unknown-objective error", err)
	}
}

// TestWholeVsPartitionedEquivalence: partitioned optimization preserves
// the function on a suite of MCNC circuits (the auto engine layers
// exact → BDD → SAT by size).
func TestWholeVsPartitionedEquivalence(t *testing.T) {
	for _, name := range []string{"my_adder", "cla", "b9", "count", "C1355"} {
		n, err := mcnc.Generate(name)
		if err != nil {
			continue // suite revisions differ; skip unknown names
		}
		net := logic.FromNetlist(n)
		out, rep, err := partition.Optimize(context.Background(), net, partition.Config{
			K: 4, Effort: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.K < 1 || len(rep.Parts) == 0 {
			t.Fatalf("%s: degenerate report %+v", name, rep)
		}
		check, err := logic.Equivalent(context.Background(), net, out, "auto")
		if err != nil {
			t.Fatalf("%s: equivalence check: %v", name, err)
		}
		if !check.Equivalent {
			t.Fatalf("%s: partitioned optimization broke equivalence: %s", name, check.Detail)
		}
	}
}

// TestOptimizeObserverStream pins the step stream Optimize sends to a
// context observer: each window's winning steps, named
// "p<part>/<rep>:<pass>", in window order, then exactly one "stitch" step.
// The stream is the same for any worker count (wall times aside).
func TestOptimizeObserverStream(t *testing.T) {
	n := load(t, "my_adder")
	var ref []logic.Step
	for _, jobs := range []int{1, 2} {
		var steps []logic.Step
		ctx := logic.ContextWithObserver(context.Background(), func(st logic.Step) {
			st.Seconds = 0
			steps = append(steps, st)
		})
		_, rep, err := partition.Optimize(ctx, n, partition.Config{K: 4, Effort: 1, Workers: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		i := 0
		for j, p := range rep.Parts {
			if j > 0 && p.Part <= rep.Parts[j-1].Part {
				t.Fatalf("jobs=%d: windows out of partition order: %+v", jobs, rep.Parts)
			}
			prefix := fmt.Sprintf("p%d/%s:", p.Part, p.Rep)
			start := i
			for i < len(steps) && strings.HasPrefix(steps[i].Pass, prefix) && len(steps[i].Pass) > len(prefix) {
				i++
			}
			if i == start {
				t.Fatalf("jobs=%d: want a %s<pass> step at position %d: %v", jobs, prefix, i, steps)
			}
		}
		if i != len(steps)-1 || steps[i].Pass != "stitch" {
			t.Fatalf("jobs=%d: want exactly one stitch step after the %d windows' steps: %v", jobs, len(rep.Parts), steps[i:])
		}
		if jobs == 1 {
			ref = steps
		} else if !reflect.DeepEqual(steps, ref) {
			t.Fatalf("jobs=%d stream differs from jobs=1:\n%v\n%v", jobs, steps, ref)
		}
	}
}
