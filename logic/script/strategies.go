package script

// The shipped strategy library. Curated entries are LSOracle/ABC-style
// compositions of the registered passes; tuned entries (tuned.go) were
// discovered by Tune on the MCNC suite and checked in. Scripts are written
// in canonical statement form — build re-canonicalizes them at init, and
// TestShippedStrategiesValidate pins the form.

// curated is the hand-written part of the library. The MIG strategies also
// serve netlist inputs, which optimize through the MIG — and every migd
// request.
var curated = []Strategy{
	{
		Name:      "migscript",
		Kind:      KindMIG,
		Objective: "size",
		Description: "LSOracle-style MIG size flow: algebraic elimination and " +
			"conservative reshaping interleaved with 4-input cut rewriting.",
		Effort: 2,
		Script: "cleanup; eliminate; reshape-size; eliminate; cut-rewrite; eliminate; reshape-size; eliminate",
		Source: SourceCurated,
	},
	{
		Name:      "migscript-depth",
		Kind:      KindMIG,
		Objective: "depth",
		Description: "MIG depth flow: critical-path push-up and aggressive reshaping " +
			"with slack-aware size recovery at constant depth (the paper's Alg. 2 moves).",
		Effort: 2,
		Script: "cleanup; pushup; reshape-depth; eliminate; pushup; reshape-depth; eliminate; pushup; eliminate-budget",
		Source: SourceCurated,
	},
	{
		Name:      "migscript2",
		Kind:      KindMIG,
		Objective: "balanced",
		Description: "Heavy MIG flow: window-parallel Boolean rewriting and SAT sweeping " +
			"(fraig) on top of the algebraic size/depth moves; the most thorough shipped flow.",
		Effort: 3,
		Script: "cleanup; eliminate; window-rewrite; eliminate; reshape-depth; eliminate-budget; fraig; pushup",
		Source: SourceCurated,
	},
	{
		Name:      "migscript3",
		Kind:      KindMIG,
		Objective: "size",
		Description: "Exact MIG flow (mockturtle mig_npn-style): NPN-database cut " +
			"rewriting with SAT-proven optimal 4-input implementations, interleaved " +
			"with algebraic elimination and reshaping.",
		Effort: 2,
		Script: "cleanup; eliminate; rewrite-npn; eliminate; reshape-size; eliminate; rewrite-npn; eliminate",
		Source: SourceCurated,
	},
	{
		Name:      "aigscript",
		Kind:      KindAIG,
		Objective: "size",
		Description: "ABC resyn2-style AIG flow: balance, DAG-aware rewriting and " +
			"SOP refactoring, closing with a depth balance.",
		Effort: 2,
		Script: "cleanup; balance; rewrite; refactor; balance; rewrite; balance",
		Source: SourceCurated,
	},
	{
		Name:      "compress2rs",
		Kind:      KindAIG,
		Objective: "size",
		Description: "ABC compress2rs analog on the registered AIG passes: repeated " +
			"balance/refactor/rewrite rounds, ending size-stable and balanced.",
		Effort: 3,
		Script: "balance; refactor; balance; rewrite; balance; rewrite; refactor; balance; rewrite; balance",
		Source: SourceCurated,
	},
}
