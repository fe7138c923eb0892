package part

// The "partition(k, effort)" meta-pass: the whole subsystem packaged as a
// registered, script-addressable MIG pass. It exports the working MIG to a
// netlist, runs the partitioned mixed-synthesis engine, and imports the
// stitched result back. Registration happens here (not in internal/mig) so
// the graph package stays free of partitioning concerns; every program
// that links the logic SDK gets the pass, because logic imports this
// package for Session.WithPartitions.

import (
	"context"
	"fmt"

	"repro/internal/flow"
	"repro/internal/mig"
	"repro/internal/opt"
)

func init() {
	mig.Passes().Register("partition",
		"k,effort",
		"partition(k=4, effort=3): k-way partition, per-partition mixed MIG/AIG synthesis in parallel (workers = -jobs), deterministic stitch-back; byte-identical for any worker count",
		func(args []int) (opt.Pass[*mig.MIG], error) {
			a, err := opt.IntArgsMin(args, 0, 4, 3)
			if err != nil {
				return nil, err
			}
			if a[0] > MaxK {
				return nil, fmt.Errorf("partition: k=%d exceeds the maximum of %d", a[0], MaxK)
			}
			if a[0] < 1 || a[1] < 1 {
				return nil, fmt.Errorf("partition: k and effort must be >= 1")
			}
			return partitionPass(a[0], a[1]), nil
		})
}

// partitionPass builds the meta-pass. A stitch failure (possible only when
// an inner flow grows a window output's structural support across the
// boundary, creating a false cross-window cycle) degrades the pass to a
// no-op rather than failing the pipeline: returning the input unchanged is
// always sound.
func partitionPass(k, effort int) opt.Pass[*mig.MIG] {
	return opt.NewCtx("partition", func(ctx context.Context, m *mig.MIG) (*mig.MIG, error) {
		out, _, err := Optimize(ctx, m.ToNetwork(), Config{K: k, Flow: flow.Spec{Effort: effort}})
		if err != nil {
			if ctx.Err() != nil {
				return m, err
			}
			return m, nil
		}
		return mig.FromNetwork(out), nil
	})
}
