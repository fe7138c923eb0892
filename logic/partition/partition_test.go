package partition_test

import (
	"context"
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

// TestCutDeterministicForSeed: the partitioner's determinism contract at
// the public surface — a fixed seed yields the same cut, part sizes and
// window set every time.
func TestCutDeterministicForSeed(t *testing.T) {
	n := load(t, "my_adder")
	a, err := partition.Cut(n, partition.Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition.Cut(n, partition.Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut != b.Cut || !reflect.DeepEqual(a.Parts, b.Parts) {
		t.Fatalf("same seed cut differently: %d/%v vs %d/%v", a.Cut, a.Parts, b.Cut, b.Parts)
	}
	wa, err := partition.Windows(n, a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := partition.Windows(n, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(wa) != len(wb) {
		t.Fatalf("window counts differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i].Net.EncodeBLIF() != wb[i].Net.EncodeBLIF() {
			t.Fatalf("window %d differs between identical cuts", i)
		}
	}
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
// exact → BDD → SAT → simulation by size).
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

// TestSessionWithPartitions drives the session-integrated form and checks
// the report lands in the Result, the trace carries window-prefixed steps,
// and worker count does not change the bytes.
func TestSessionWithPartitions(t *testing.T) {
	n := load(t, "my_adder")
	var ref string
	for _, jobs := range []int{1, 4} {
		sess, err := logic.NewSession(
			logic.WithPartitions(4),
			logic.WithEffort(1),
			logic.WithWorkers(jobs),
			logic.WithVerify("auto"),
		)
		if err != nil {
			t.Fatal(err)
		}
		out, res, err := sess.Optimize(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partition == nil || res.Partition.K < 2 || len(res.Partition.Parts) == 0 {
			t.Fatalf("missing partition report: %+v", res.Partition)
		}
		if res.VerifyMethod == "" {
			t.Fatal("verification did not run")
		}
		if len(res.Trace) == 0 {
			t.Fatal("empty trace")
		}
		if res.Trace[len(res.Trace)-1].Pass != "stitch" {
			t.Fatalf("last trace step %q, want stitch", res.Trace[len(res.Trace)-1].Pass)
		}
		enc := out.EncodeBLIF()
		if jobs == 1 {
			ref = enc
		} else if enc != ref {
			t.Fatal("session partitioned output depends on worker count")
		}
	}
}

// TestSessionPartitionsRejectsAIGStrategy: an AIG-targeted strategy cannot
// drive the partition path's MIG candidate flow.
func TestSessionPartitionsRejectsAIGStrategy(t *testing.T) {
	sess, err := logic.NewSession(logic.WithPartitions(2), logic.WithStrategy("aigscript"))
	if err != nil {
		t.Fatal(err)
	}
	n := load(t, "my_adder")
	if _, _, err := sess.Optimize(context.Background(), n); err == nil {
		t.Fatal("AIG strategy accepted on the partition path")
	}
}

// TestWithPartitionsValidates bounds the option's argument.
func TestWithPartitionsValidates(t *testing.T) {
	if _, err := logic.NewSession(logic.WithPartitions(-1)); err == nil {
		t.Fatal("negative partitions accepted")
	}
	if _, err := logic.NewSession(logic.WithPartitions(partition.MaxK + 1)); err == nil {
		t.Fatal("partitions > MaxK accepted")
	}
	if _, err := logic.NewSession(logic.WithPartitions(0)); err != nil {
		t.Fatalf("partitions=0 (disabled) rejected: %v", err)
	}
}

// TestScriptedPartitionPass drives the registered "partition(k)" pass from
// a session script — the scriptable face of the subsystem.
func TestScriptedPartitionPass(t *testing.T) {
	n := load(t, "my_adder")
	sess, err := logic.NewSession(logic.WithScript("partition(2, 1); cleanup"), logic.WithVerify("auto"))
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := sess.Optimize(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range res.Trace {
		if strings.HasPrefix(st.Pass, "partition") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no partition step in trace: %v", res.Trace)
	}
}
