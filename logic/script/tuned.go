package script

// Tuner-discovered strategies, checked in from real Tune runs (migbench
// -tune) over the seven small-to-mid MCNC stand-ins my_adder, count, alu4,
// b9, C1908, C1355 and dalu with a 5-minute budget each. The suite
// geomeans quoted in the descriptions compare against the canned §V.A
// flow at effort 3 on the same circuits; logic/bench's
// TestTunedStrategyBeatsFlow pins the per-circuit wins.

var tuned = []Strategy{
	{
		Name:      "tuned-depth",
		Kind:      KindMIG,
		Objective: "depth",
		Description: "Tuner-discovered depth flow (greedy pass-append + local search, " +
			"converged after 95 trials): beats the canned effort-3 flow on both suite " +
			"geomeans — depth 9.41 vs 9.55, size 245 vs 250 — at a fraction of its cost.",
		Effort: 1,
		Script: "cut-rewrite; pushup; fraig",
		Source: SourceTuned,
	},
	{
		Name:      "tuned-size",
		Kind:      KindMIG,
		Objective: "size",
		Description: "Tuner-discovered size flow (converged after 75 trials): SAT sweeping " +
			"then cut rewriting shrinks the suite size geomean to 215 vs the canned " +
			"effort-3 flow's 250, winning on six of the seven tuning circuits.",
		Effort: 1,
		Script: "cleanup; fraig; cut-rewrite",
		Source: SourceTuned,
	},
}
