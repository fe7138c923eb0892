package main

// The four workloads. Each request enters as BLIF text and leaves as BLIF
// text, so decoding and encoding are part of every measured path; every
// call into the program goes through the public packages logic,
// logic/bench and logic/partition.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/logic"
	"repro/logic/bench"
	"repro/logic/partition"
)

// request is one unit of work of a workload.
type request struct {
	name string // circuit, plus the flow when requests share an input
	leg  string // flow selector for workloads that run several on one input
	src  []byte // BLIF input
}

// output is one encoded result of a request.
type output struct {
	leg     string // the flow that produced it: mig, aig, bds, migscript3, part
	blif    string
	net     logic.Network // the result before encoding, for size and depth
	verdict string        // logic.EquivResult.Method; "" when unverified
}

type workload struct {
	name string
	why  string
	gen  func(seed uint64) ([]request, error)
	run  func(ctx context.Context, e *env, r *request) ([]output, error)
}

const (
	// The mesh sizes keep a pass over either mesh workload to a few
	// seconds on a 2-core machine. A partitioned gate costs several times
	// a whole-design one (every window also runs the AIG flow), so
	// mesh-partition gets the small mesh, and mesh-whole runs that mesh
	// through the flow objective too: the two outputs compare in one unit.
	bigMesh   = 12000
	smallMesh = 1500
	// partitionK and partitionSeed fix mesh-partition's cut. The seed stays
	// constant: another cut is another circuit to optimize, and the
	// benchmark's figures must not depend on the workload seed.
	partitionK    = 4
	partitionSeed = 1
	// bdsLimit is Table I's global BDD node budget (bench.Config default).
	bdsLimit = 1 << 18
)

// table1Circuits is the Table I subset whose three flows together take a
// few seconds. The rest (s38417, clma, bigkey, C6288, misex3, mm30a,
// C1908) each cost 2-12 s per row, almost all of it in the AIG leg, which
// would leave too few passes in a run for a steady median.
var table1Circuits = []string{"C1355", "my_adder", "cla", "dalu", "b9", "count", "alu4"}

var workloads = []*workload{
	{
		name: "mcnc-verified",
		why:  "the default mighty path a designer runs on the 14 MCNC stand-ins: flow effort 3, then Equivalent(auto); equivalence checking dominates",
		gen:  genCircuits(bench.Circuits()),
		run:  runVerified,
	},
	{
		name: "mesh-whole",
		why:  "a 13k-gate generated mesh through the flow objective and migscript3, unverified; MIG passes and MB-scale decode/encode dominate",
		gen:  genMesh(meshReq{bigMesh, "flow"}, meshReq{bigMesh, "migscript3"}, meshReq{smallMesh, "flow"}),
		run:  runWhole,
	},
	{
		name: "table1",
		why:  "Table I-top per circuit: MIG flow, AIG resyn2x2+balance and BDS in sequence; the AIG baseline dominates, MIG passes are a few percent",
		gen:  genCircuits(table1Circuits),
		run:  runTable1,
	},
	{
		name: "mesh-partition",
		why:  "partition.Optimize with k=4 on a 2k-gate mesh that mesh-whole also runs whole: cut, parallel MIG/AIG windows, stitch",
		gen:  genMesh(meshReq{smallMesh, "part"}),
		run:  runPartition,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// genCircuits encodes the named MCNC stand-ins as BLIF. The circuits are
// fixed; the seed orders the requests and draws the check patterns.
func genCircuits(names []string) func(uint64) ([]request, error) {
	return func(uint64) ([]request, error) {
		reqs := make([]request, len(names))
		for i, name := range names {
			n, err := bench.Circuit(name)
			if err != nil {
				return nil, err
			}
			reqs[i] = request{name: name, src: []byte(n.EncodeBLIF())}
		}
		return reqs, nil
	}
}

// meshReq is one flow over a bench.Mesh of the given size.
type meshReq struct {
	nodes int
	leg   string
}

// genMesh encodes each mesh once and makes one request per flow over it.
// bench.Mesh takes no seed, so the meshes are the same for every seed.
func genMesh(mrs ...meshReq) func(uint64) ([]request, error) {
	return func(uint64) ([]request, error) {
		srcs := map[int][]byte{}
		reqs := make([]request, len(mrs))
		for i, mr := range mrs {
			if srcs[mr.nodes] == nil {
				srcs[mr.nodes] = []byte(bench.Mesh(mr.nodes).EncodeBLIF())
			}
			reqs[i] = request{name: fmt.Sprintf("mesh%d/%s", mr.nodes, mr.leg), leg: mr.leg, src: srcs[mr.nodes]}
		}
		return reqs, nil
	}
}

// env holds what requests share: the sessions, the worker budget, and the
// current pass's tracer (nil when the pass is untraced).
type env struct {
	workers int
	flow    *logic.Session // mighty's default: flow objective, effort 3
	npn     *logic.Session // the migscript3 strategy
	aig     *logic.Session // resyn2 x2 + balance on AIG inputs
	tr      *tracer
}

func newEnv(workers int) (*env, error) {
	e := &env{workers: workers}
	var err error
	if e.flow, err = logic.NewSession(logic.WithObjective("flow"), logic.WithEffort(3), logic.WithWorkers(workers)); err != nil {
		return nil, err
	}
	if e.npn, err = logic.NewSession(logic.WithStrategy("migscript3"), logic.WithWorkers(workers)); err != nil {
		return nil, err
	}
	if e.aig, err = logic.NewSession(logic.WithAIGRounds(2), logic.WithWorkers(workers)); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) decode(src []byte) (*logic.Netlist, error) {
	id := e.tr.begin("blif.decode")
	n, err := logic.DecodeBLIFReader(bytes.NewReader(src))
	e.tr.end(id)
	e.tr.add("blif.decode_bytes", float64(len(src)))
	return n, err
}

// toMIG is the mighty input path: recover majority cones, then build the
// MIG.
func (e *env) toMIG(n *logic.Netlist) *logic.MIG {
	id := e.tr.begin("convert.remajorize")
	r := n.Remajorize()
	e.tr.end(id)
	id = e.tr.begin("convert.to_mig")
	m := logic.ToMIG(r)
	e.tr.end(id)
	return m
}

func (e *env) toAIG(n *logic.Netlist) *logic.AIG {
	id := e.tr.begin("convert.to_aig")
	a := logic.ToAIG(n)
	e.tr.end(id)
	return a
}

// optimize runs s on n inside the span "<layer>.optimize". When traced,
// each committed pass becomes a child span reaching from the previous
// commit to its own.
func (e *env) optimize(ctx context.Context, layer string, s *logic.Session, n logic.Network) (logic.Network, error) {
	id := e.tr.begin(layer + ".optimize")
	if tr := e.tr; tr != nil {
		last := time.Now()
		ctx = logic.ContextWithObserver(ctx, func(st logic.Step) {
			now := time.Now()
			tr.step(layer, st, last, now)
			last = now
		})
	}
	out, _, err := s.Optimize(ctx, n)
	e.tr.end(id)
	return out, err
}

// verify proves got equivalent to ref with the auto engine and returns the
// engine that decided.
func (e *env) verify(ctx context.Context, ref, got logic.Network) (string, error) {
	id := e.tr.begin("equiv")
	res, err := logic.Equivalent(ctx, ref, got, "auto")
	ms := e.tr.end(id)
	if err != nil {
		return "", err
	}
	if !res.Equivalent {
		return "", fmt.Errorf("not equivalent (%s): %s", res.Method, res.Detail)
	}
	e.tr.add("equiv."+res.Method+"_count", 1)
	e.tr.add("equiv."+res.Method+"_ms", ms)
	return res.Method, nil
}

func (e *env) encode(leg string, n logic.Network) output {
	id := e.tr.begin("blif.encode")
	s := n.EncodeBLIF()
	e.tr.end(id)
	return output{leg: leg, blif: s, net: n}
}

// runVerified is mighty's default path: decode, remajorize, flow at effort
// 3, verify with the auto engine, encode.
func runVerified(ctx context.Context, e *env, r *request) ([]output, error) {
	net, err := e.decode(r.src)
	if err != nil {
		return nil, err
	}
	opt, err := e.optimize(ctx, "mig", e.flow, e.toMIG(net))
	if err != nil {
		return nil, err
	}
	verdict, err := e.verify(ctx, net, opt)
	if err != nil {
		return nil, err
	}
	o := e.encode("mig", opt)
	o.verdict = verdict
	return []output{o}, nil
}

// runWhole optimizes the whole mesh with the request's flow, unverified:
// auto verification of a 20k-gate mesh runs for minutes and ends in a
// simulation verdict.
func runWhole(ctx context.Context, e *env, r *request) ([]output, error) {
	net, err := e.decode(r.src)
	if err != nil {
		return nil, err
	}
	s := e.flow
	if r.leg == "migscript3" {
		s = e.npn
	}
	opt, err := e.optimize(ctx, "mig", s, e.toMIG(net))
	if err != nil {
		return nil, err
	}
	return []output{e.encode(r.leg, opt)}, nil
}

// runTable1 is one Table I-top row: the MIG flow, the AIG baseline and
// BDS on the same decoded circuit, in sequence. BDS may give up (N.A. in
// the paper's table); that row then has no BDS output.
func runTable1(ctx context.Context, e *env, r *request) ([]output, error) {
	net, err := e.decode(r.src)
	if err != nil {
		return nil, err
	}
	m, err := e.optimize(ctx, "mig", e.flow, e.toMIG(net))
	if err != nil {
		return nil, err
	}
	outs := []output{e.encode("mig", m)}
	a, err := e.optimize(ctx, "aig", e.aig, e.toAIG(net))
	if err != nil {
		return nil, err
	}
	outs = append(outs, e.encode("aig", a))

	id := e.tr.begin("bds")
	d, met := bench.BDSOptimize(logic.Flat(net), bdsLimit)
	e.tr.end(id)
	if !met.OK {
		e.tr.add("bds.na", 1)
		return outs, nil
	}
	return append(outs, e.encode("bds", logic.FromNetlist(d))), nil
}

// runPartition optimizes the mesh through the partition subsystem.
func runPartition(ctx context.Context, e *env, r *request) ([]output, error) {
	net, err := e.decode(r.src)
	if err != nil {
		return nil, err
	}
	id := e.tr.begin("part")
	if tr := e.tr; tr != nil {
		ctx = logic.ContextWithObserver(ctx, func(st logic.Step) {
			// Window steps arrive as "p<i>/<rep>:<pass>"; the stitch step
			// is covered by the report.
			if _, p, ok := strings.Cut(st.Pass, "/"); ok {
				if layer, pass, ok := strings.Cut(p, ":"); ok {
					st.Pass = pass
					tr.reportedStep(layer, st)
				}
			}
		})
	}
	out, rep, err := partition.Optimize(ctx, net, partition.Config{K: partitionK, Seed: partitionSeed, Workers: e.workers})
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	e.partReport(rep)
	return []output{e.encode("part", out)}, nil
}

// partReport adds the partitioned run's own phase times and window
// statistics to the pass's counters.
func (e *env) partReport(rep *logic.PartitionReport) {
	if e.tr == nil {
		return
	}
	e.tr.add("part.cut_ms", rep.PartitionSeconds*1000)
	e.tr.add("part.stitch_ms", rep.StitchSeconds*1000)
	var maxS float64
	for _, p := range rep.Parts {
		maxS = max(maxS, p.Seconds)
		e.tr.add("part.window_sum_s", p.Seconds)
		e.tr.add("part.windows_"+p.Rep, 1)
	}
	e.tr.add("part.window_max_s", maxS)
}
