// Package repro is a from-scratch Go reproduction of "Majority-Inverter
// Graph: A Novel Data-Structure and Algorithms for Efficient Logic
// Optimization" (Amarù, Gaillardon, De Micheli — DAC 2014).
//
// # Public API
//
// The stable, importable surface is the logic package and its siblings —
// everything under internal/ is implementation detail, and none of the
// executables or examples import it:
//
//   - logic exports the representation-agnostic Network interface (stats,
//     I/O names, Clone, BLIF/Verilog encode/decode) implemented by the
//     MIG, the AIG and the flat netlist, plus construction APIs (NewMIG,
//     NewAIG, NewNetwork) and conversions (ToMIG, ToAIG, Flatten).
//   - logic.Session is the configured optimizer: functional options
//     (WithEffort, WithObjective, WithScript, WithStrategy, WithVerify,
//     WithWorkers, WithFraig, ...) replace bare config literals, and
//     Optimize(ctx, net) threads context.Context through the pass
//     pipeline, the window-parallel workers and the SAT solver's conflict
//     loop, so deadlines and cancellation interrupt C6288-class solves
//     promptly; the deadline is the only bound on an equivalence proof.
//     logic.Equivalent is context-aware combinational equivalence checking;
//     logic.Passes/FormatPassList enumerate the scriptable passes with
//     argument signatures in deterministic order, and logic.Strategies
//     lists the named strategy library.
//   - logic.Step, Trace and Observer (a run's per-pass record and its
//     live hook) and PartitionReport/PartitionStat (a partitioned run's
//     report) are the engine's own records, internal/opt's Step, Trace
//     and Observer and internal/part's Report and PartStat, exposed as
//     aliases the way Library and MapResult expose the mapper's types.
//     The engine fills them once; Session results, the migd JSON and SSE
//     events, and migbench all read that one value.
//   - logic/script is the strategy library and tuner: whole optimization
//     flows as named, versioned objects (migscript, migscript-depth,
//     migscript2, aigscript, compress2rs, tuned-size, tuned-depth), each
//     validated against the live pass registry at init and resolvable by
//     logic.WithStrategy, mighty/migbench -strategy and the service's
//     script_name; script.Tune searches pass-script space (greedy
//     pass-append plus local search under wall-clock/trial/ctx budgets)
//     for new strategies — the shipped tuned-* entries are its output on
//     the MCNC suite. The library is the checked-in table; it has no
//     runtime extension point.
//   - logic/bench is the experiment harness: the paper's benchmark
//     circuits (Circuit, Compress), the Table I flows and batch engine
//     (RunOptRows, RunSynthRows, RunCompress), report JSON, the
//     quality-trajectory diff (DiffReports), and the MCNC-backed
//     evaluator behind the script tuner (ScriptEvaluator).
//   - logic/partition.Optimize runs the partitioned flow (a
//     deterministic k-way cut, parallel mixed MIG/AIG per-window
//     synthesis, serial stitch) on any Network and returns the optimized
//     netlist plus a PartitionReport. It is the engine's only entry
//     point; no Session option, pass, CLI flag or service field reaches
//     it, because whole-design optimization beat it on time and
//     area-delay product. See # Partitioning below and
//     docs/PARTITION.md.
//   - service is the HTTP/JSON optimization daemon behind cmd/migd:
//     POST /v1/optimize runs a Session under deadline-aware admission
//     control (bounded worker pool + bounded wait queue, 429+Retry-After
//     load shedding), per-client token-bucket rate limits, singleflight
//     collapsing of identical in-flight work, panic containment, and
//     graceful drain (/readyz flips 503, in-flight work finishes), with
//     an LRU result cache keyed by (network hash, effective script,
//     options) — named strategies are accepted as script_name and listed
//     by GET /v1/scripts, GET /v1/stats exposes the robustness counters;
//     the package also ships the Go Client (bounded-backoff retries of
//     429/503/transport failures only) used by examples/service. The
//     wire protocol and failure semantics are documented in
//     docs/SERVICE.md.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	m := logic.NewMIG("carry")
//	a, b := m.AddInput("a"), m.AddInput("b")
//	m.AddOutput("cout", m.Maj(a, b, logic.MIGConst0))
//	sess, _ := logic.NewSession(logic.WithObjective("depth"), logic.WithVerify("auto"))
//	opt, res, err := sess.Optimize(ctx, m)            // res.Trace, res.VerifyMethod
//	text, _ := logic.Encode(opt, logic.FormatVerilog) // or opt.EncodeBLIF()
//
// # Architecture: passes and pipelines
//
// The optimization spine is the generic pass engine in internal/opt. Each
// local transformation sweep — the paper's Ω/Ψ rewrites on the MIG, the
// ABC-style balance/rewrite/refactor on the AIG — is a named, registered
// Pass, and the paper's Section IV algorithms are Pipelines: ordered
// compositions of passes with a per-pass metrics trace (size, depth,
// switching activity, wall time) and optional functional-equivalence
// verification after every step.
//
//   - internal/mig registers eliminate, eliminate-budget, reshape-size,
//     reshape-depth, pushup, activity, cut-rewrite, window-rewrite,
//     rewrite-npn, fraig and cleanup, and exposes
//     Algorithm 1 (SizePipeline), Algorithm 2 (DepthPipeline), the §V.A
//     experimental flow (FlowPipeline) and the §IV.C activity flow
//     (ActivityPipeline) as canned pipelines.
//   - internal/aig registers balance, rewrite, refactor, fraig and cleanup,
//     and exposes the resyn2 recipe as Resyn2Pipeline.
//   - internal/flow is where an objective becomes a pipeline. A flow.Spec
//     (objective, effort, AIG rounds, script, fraig and NPN appends,
//     activity profile) resolves to the MIG or AIG pipeline that runs it;
//     it alone knows the objective names and the defaults (the §V.A flow
//     at effort 3, two resyn2 rounds). logic.Session, the partition
//     engine's per-window candidates and the logic/bench legs all run
//     what it resolves.
//   - Textual pass scripts ("eliminate(8); reshape-depth; eliminate")
//     compile to pipelines via opt.Parse; the mighty CLI exposes this
//     through -script and -list-passes.
//
// Cut enumeration (merge, dominance filtering, truth-table extraction) is
// shared by both graph representations through internal/cut.
//
// # Performance architecture
//
// The data plane of both graph packages is allocation-free on its hot
// paths:
//
//   - Structural hashing (strash) is threaded through the nodes, as ABC
//     threads its AIG strash through the node objects: every node heads
//     the chain of the majority (AND) nodes whose largest canonical fanin
//     it is, newest first, and each of those links to the next-older one.
//     Maj and And walk the chain of the key's largest fanin, whose node
//     they read anyway for its level, so there is no table to size, grow,
//     copy or miss in the cache. The AIG passes, which build a candidate
//     and roll it back, unlink by node index: nodes are appended in order
//     and chains prepended, so each removed node heads its chain. The MIG
//     never takes a node back. Graph Clone copies the nodes and with them
//     the strash, and a rebuild reserves its node slice.
//   - Every old→new remap of the topological rebuilds is a dense []Signal
//     slice drawn from pooled slabs, and the cone traversals
//     (replaceInCone, relevanceReach, local activity, truth-table walks)
//     and the window engine's per-window remap memoize in epoch-stamped
//     arrays owned by the graph or the worker — clearing is a counter
//     increment, not an allocation or a graph-sized fill. A MIG's live
//     mask is one scan from its newest node down, since nodes are only
//     ever appended after their fanins.
//   - Cut enumeration writes into an arena-backed cut.Cache, the only way
//     passes and baselines read cuts: all leaves in one flat array, spans
//     per cut, offsets per node. The cache lives on the graph and is
//     maintained incrementally — appended nodes are enumerated on demand
//     (Extend) — so repeated passes over an unchanged region never
//     re-enumerate the whole graph.
//   - Functions of up to six variables (every 4-input cut) are synthesized
//     and extracted as single uint64 words (internal/mig synth6.go):
//     cofactors, projections and matching are pure word arithmetic.
//     Resynthesis takes at most six variables, so the word path is its
//     only implementation.
//   - Every MIG pass costs a candidate without building it, in the style
//     of ABC's lookup-only DAG-aware rewriting (Mishchenko, Chatterjee and
//     Brayton, DAC 2006). An Ω/Ψ candidate is a (shape, parameters) record
//     and a cut-rewriting candidate a synthesized cut function; its dry
//     build applies Maj's own normalization and only looks keys up, and a
//     miss becomes a virtual node numbered as the real build would number
//     it. Each node's used flag (set on the fanins of every node Maj
//     creates) skips the lookup of a key that cannot be in the strash.
//     Probing modifies nothing, and a warm Ω/Ψ probe allocates nothing.
//     An Ω/Ψ probe takes the caller's bound on added nodes and stops at
//     the first virtual node past it, so a candidate that cannot be
//     accepted is not built out in full.
//
// Window-parallel rewriting (mig.WindowRewritePass, pass name
// "window-rewrite") partitions the live nodes into maximal fanout-free
// cones, evaluates cut candidates per cone on a worker pool (the workers
// share the input graph and probe it dry), and commits the chosen rewrites
// in one serial topological rebuild. Results are byte-identical for every worker
// count. The worker budget reaches a pass only through its context
// (opt.ContextWithWorkers, read by opt.WorkersCtx; 1 when absent): the
// CLIs' -jobs flags, logic.WithWorkers and migd's per-request workers
// field set it, so concurrent server requests each carry their own. Every
// pass is one opt.Pass whose Apply takes the context, and the pipeline
// engine, the worker pool (opt.ForEach) and the SAT solver's conflict
// loop (Solver.Stop) all observe its cancellation.
//
// # Exact rewriting
//
// The rewrite-npn pass (mig.NPNRewritePass) replaces the heuristic
// candidate synthesis of cut rewriting with provably size-optimal
// implementations. Offline, cmd/npngen enumerates the 222 NPN equivalence
// classes of 4-input Boolean functions and exact-synthesizes a minimum-gate
// MIG for each class representative with the SAT encoding in
// internal/exact (selection-variable encoding over candidate fanins;
// gate count minimized first, depth as tiebreak, every witness re-verified
// by word simulation). The resulting database is checked in as generated
// Go source plus a canonical text mirror (internal/npndb), so runtime
// lookups are a table index away: canonize the cut function, fetch the
// class entry, replay the inverse NPN transform onto the cut leaves. The
// pass rides the window-rewrite machinery — per-cone dry probing on a
// worker pool, serial deterministic commit, positive DAG-aware net gain
// required (nodes added after strashing minus the replaced cone's freed
// fanout-free interior) — so it is byte-identical for every worker count
// and never size-increasing. CI regenerates a database sample and fails on drift
// (npngen -check); docs/NPN.md documents the encoding and the database
// format.
//
// # Partitioning
//
// internal/part, reached only through logic/partition.Optimize, splits
// optimization across windows. The netlist is modeled as a hypergraph
// (gates are vertices, signals are hyperedges) and cut into k balanced
// parts by a deterministic multilevel partitioner — heavy-edge
// coarsening, greedy initial cut, Fiduccia–Mattheyses boundary
// refinement at each uncoarsening level, (λ-1) connectivity objective,
// all tie-breaks seeded by a splitmix64 stream so the same (netlist,
// seed) always yields the same cut. Each part becomes a self-contained
// window (boundary signals become w_<node> inputs/outputs) and is
// optimized twice on a worker pool: once as a MIG under the run's
// script and objective, once as an AIG under resyn2-style rounds. The
// per-window winner is chosen by the run's objective — for the
// default "flow" objective the score is the area-delay product, which
// lets arithmetic-shaped windows go MIG while wide factorable control
// cones go AIG. A serial stitch merges the winners back at gate
// granularity in deterministic order (parts may feed each other
// cyclically at the quotient level, so the stitch interleaves gates
// rather than whole windows). The stitched output is byte-identical for
// any worker count and functionally equivalent to the input.
//
// Measured on Mesh(100000) (2-core machine, effort 1), whole-design
// optimization takes 10.6 s for an area-delay product of 52.3 M, and
// partitioning (k=8, two workers) 20.2 s for 59.2 M. So the Session
// option, the partition(k, effort) pass, the CLI flags and migd's
// partitions field were removed; the engine remains for the benchmark's
// mesh-partition workload.
//
// Supporting cast: logic/bench.Mesh (miggen -nodes) generates
// deterministic ~N-gate tiled meshes with heterogeneous regions for
// exercising the flow at 100k+ gates, and BLIF decoding streams from
// io.Reader (internal/blif.ParseReader, logic.DecodeReader) with a
// worklist for out-of-order .names blocks, so peak memory tracks the
// netlist rather than the file. docs/PARTITION.md documents the
// algorithm, the determinism contract and the measurements.
//
// # SAT subsystem
//
// internal/sat is a compact CDCL solver (two-watched-literal propagation,
// first-UIP learning, VSIDS activities, Luby restarts, incremental solving
// under assumptions with conflict budgets) plus Tseitin CNF encoders for
// the netlist IR — the majority gate encodes as its six two-out-of-three
// cover clauses. The solver is built for reuse: clause groups
// (PushGroup/ReleaseGroup) gate batches of clauses behind activation
// literals so they can be retracted without discarding what the solver
// learned, Purge recycles released clauses and variables, and Reset
// rewinds a solver to the exact fresh-solver state while keeping its
// memory. Three layers build on it:
//
//   - internal/equiv gained a SAT engine: a miter strengthened by
//     internal-point sweeping (shared random simulation proposes internal
//     node pairs; each is decided on its own lazily encoded fanin cones,
//     with branching confined to them under a per-query budget, and a
//     proven b-node is substituted by its a-literal), which decides
//     arithmetic-circuit miters that are hopeless for a bare CDCL run. Its
//     output solve has no budget, so the auto layering exact -> BDD -> SAT
//     always proves or refutes, and the caller's deadline is its only
//     bound; random simulation runs only when forced. Mismatches carry the
//     failing input assignment in Result.Detail, and Result also reports
//     the conflicts and restarts the check consumed. Scripted pipeline
//     runs prove each pass against the previous step with that same
//     sweeping miter (opt.EquivChecker; the auto engine uses SAT for these
//     per-pass checks), so the chain closes on the input by transitivity.
//     Options.Engine and the CLIs' -verify flag force a specific engine.
//   - The fraig passes (internal/mig, internal/aig) are simulation-guided
//     SAT sweeping: candidate equivalence classes from random simulation,
//     per-pair cone proofs fanned over opt.ForEach workers, refutation
//     counterexamples refining the next round, and proven nodes merged
//     through the dense-remap rebuild. Each worker owns one long-lived
//     solver rewound with Reset per pair, so solver constructions are
//     O(workers) while results stay deterministic for any worker count
//     and never size-increasing. The representation-independent sweeping
//     core (stimulus rows, canonical-signature classification, round
//     orchestration, the session counterexample pool that persists
//     refutation patterns across the passes of one run) lives in
//     internal/sweep, shared with the miter.
//   - The solver itself is proven against brute-force enumeration on
//     random CNFs (and continuously via FuzzSolver), with the same suite
//     replayed through reused group-gated solvers.
//
// See internal/sat/README.md for the architecture and encoding details.
//
// # Benchmark engine
//
// logic/bench composes the flows the paper evaluates (MIG vs AIG vs
// BDS/CST) and runs them through a parallel batch engine: circuits are
// distributed over a worker pool and the competing flows of each circuit
// run concurrently, with results in deterministic input order (migbench
// -jobs). migbench -json emits per-circuit metrics for tracking the
// performance trajectory across commits; CI snapshots each run and gates
// regressions against bench_baseline.json via cmd/benchdiff
// (bench.DiffReports).
//
// The engines live under internal/: the MIG core (internal/mig), the AIG
// and BDS baselines (internal/aig, internal/bdd), the pass engine
// (internal/opt), shared cut machinery (internal/cut), the SOP engine
// (internal/sop), technology mapping (internal/mapping), and the MCNC
// benchmark stand-ins (internal/mcnc). The public surface is logic,
// logic/bench, logic/partition and service. Executables are under cmd/ (mighty, migbench,
// miggen, benchdiff, migd) and runnable examples under examples/.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; migbench prints measured values next to the values
// the paper reports, and internal/mcnc documents the benchmark
// substitution rationale (the MCNC originals are not redistributable, so
// functional stand-ins preserve each circuit's I/O shape, functional
// family and size scale).
//
// The user-facing documentation lives in README.md (overview and
// quickstart), docs/PASSES.md (the generated pass and strategy
// reference), docs/PARTITION.md (the partition subsystem) and
// docs/SERVICE.md (the migd wire protocol).
//
//go:generate go run ./cmd/passdoc -out docs/PASSES.md
package repro
