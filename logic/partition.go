package logic

// The partition engine's report, exposed as is: internal/part fills it and
// logic/partition.Optimize returns that same value.

import "repro/internal/part"

// PartitionStat reports one partition window of a partitioned run: Part
// (the window's partition index), Gates/Inputs/Outputs (the extracted
// window; inputs count boundary signals lifted to window PIs), Rep (the
// representation whose candidate won the window under the run's
// objective: "mig" or "aig"), SizeBefore/SizeAfter and DepthBefore/
// DepthAfter (measured on the window's netlist export) and Seconds (the
// window's wall time, both candidate flows). The JSON keys are the
// snake_case field names, in field order.
type PartitionStat = part.PartStat

// PartitionReport describes one logic/partition.Optimize call: K (the
// effective partition count, the requested k clamped so parts stay
// optimizable), Cut (the (λ-1) connectivity of the cut), Parts (each
// non-empty window in partition order), PartitionSeconds (partitioning
// plus window extraction) and StitchSeconds (the serial stitch-back).
type PartitionReport = part.Report
