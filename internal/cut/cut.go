// Package cut implements k-feasible cut enumeration shared by the graph
// representations (internal/aig, internal/mig). A cut of a node is a set of
// leaf nodes covering a cone rooted at the node; cut-based passes
// resynthesize the cone from its truth table over the cut leaves.
//
// Cuts are read only through a Cache, which each graph keeps and extends as
// nodes are appended (mig.CutSet, aig.CutSet); every read is a
// zero-allocation view into its arena. The package is
// representation-agnostic: enumeration is driven by a per-node
// classification callback, and truth-table extraction (FunctionDense) by a
// per-node combine callback, so both the 2-input AND graphs and the 3-input
// majority graphs reuse the same merge, dominance-filtering and memoization
// machinery.
package cut

// Role classifies a node for enumeration.
type Role int

// Node roles.
const (
	Skip Role = iota // node contributes no cuts (dead or unknown kind)
	Leaf             // primary input: the only cut is {node}
	Free             // constant: the empty cut (consumes no leaf capacity)
	Gate             // internal node: cuts are merged from the fanin cuts
)
