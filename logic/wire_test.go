package logic_test

import (
	"encoding/json"
	"testing"

	"repro/logic"
)

// TestWireShapePinned pins the JSON shape of an optimization result: the
// field names, their order and their omitempty behaviour. migd responses,
// its SSE "step" events and migbench -partition -json all carry these
// bytes, so a renamed tag or a reordered field is a wire break. Every
// field is set, so none is hidden by omitempty.
func TestWireShapePinned(t *testing.T) {
	stats := func(name string, size int) logic.Stats {
		return logic.Stats{Kind: logic.KindMIG, Name: name, Inputs: 3, Outputs: 2, Size: size, Depth: 4, Activity: 1.5}
	}
	res := logic.Result{
		Before: stats("in", 10),
		After:  stats("out", 8),
		Trace: logic.Trace{
			{Pass: "eliminate", SizeBefore: 10, SizeAfter: 9, DepthBefore: 4, DepthAfter: 5,
				ActivityBefore: 2.5, ActivityAfter: 2.25, Seconds: 0.5, Equiv: "ok",
				VerifyMS: 1.5, Conflicts: 7, SolverRestarts: 2},
			{Pass: "reshape-depth", SizeBefore: 9, SizeAfter: 8, DepthBefore: 5, DepthAfter: 4,
				ActivityBefore: 2.25, ActivityAfter: 2, Seconds: 0.25, Equiv: "not equivalent",
				VerifyMS: 3, Conflicts: 11, SolverRestarts: 1},
		},
		Seconds:      1.25,
		VerifyMethod: "sat",
		VerifyDetail: "proved",
		Partition: &logic.PartitionReport{
			K:   2,
			Cut: 3,
			Parts: []logic.PartitionStat{{Part: 1, Gates: 6, Inputs: 4, Outputs: 2, Rep: "aig",
				SizeBefore: 6, SizeAfter: 5, DepthBefore: 3, DepthAfter: 2, Seconds: 0.125}},
			PartitionSeconds: 0.0625,
			StitchSeconds:    0.03125,
		},
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "before": {
    "kind": "mig",
    "name": "in",
    "inputs": 3,
    "outputs": 2,
    "size": 10,
    "depth": 4,
    "activity": 1.5
  },
  "after": {
    "kind": "mig",
    "name": "out",
    "inputs": 3,
    "outputs": 2,
    "size": 8,
    "depth": 4,
    "activity": 1.5
  },
  "trace": [
    {
      "pass": "eliminate",
      "size_before": 10,
      "size_after": 9,
      "depth_before": 4,
      "depth_after": 5,
      "activity_before": 2.5,
      "activity_after": 2.25,
      "seconds": 0.5,
      "equiv": "ok",
      "verify_ms": 1.5,
      "conflicts": 7,
      "solver_restarts": 2
    },
    {
      "pass": "reshape-depth",
      "size_before": 9,
      "size_after": 8,
      "depth_before": 5,
      "depth_after": 4,
      "activity_before": 2.25,
      "activity_after": 2,
      "seconds": 0.25,
      "equiv": "not equivalent",
      "verify_ms": 3,
      "conflicts": 11,
      "solver_restarts": 1
    }
  ],
  "seconds": 1.25,
  "verify_method": "sat",
  "verify_detail": "proved",
  "partition": {
    "k": 2,
    "cut": 3,
    "parts": [
      {
        "part": 1,
        "gates": 6,
        "inputs": 4,
        "outputs": 2,
        "rep": "aig",
        "size_before": 6,
        "size_after": 5,
        "depth_before": 3,
        "depth_after": 2,
        "seconds": 0.125
      }
    ],
    "partition_seconds": 0.0625,
    "stitch_seconds": 0.03125
  }
}`
	if string(got) != want {
		t.Fatalf("logic.Result wire shape changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
