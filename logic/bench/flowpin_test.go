package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/logic"
	"repro/logic/partition"
)

// pinCircuits are the Table I circuits the repository benchmark's table1
// workload runs, plus "rand", a random-logic circuit on which effort 3
// differs from effort 2 (on none of the MCNC stand-ins or meshes does it).
var pinCircuits = []string{"C1355", "my_adder", "cla", "dalu", "b9", "count", "alu4", "rand"}

// pinMesh is the generated mesh the mesh-partition workload cuts (and
// mesh-whole also runs whole).
const pinMesh = 1500

// flowPin is one pinned entry point: run optimizes one circuit and returns
// its encoded output and the pass names of its trace. mesh adds
// Mesh(pinMesh) after pinCircuits.
type flowPin struct {
	name   string
	mesh   bool
	run    func(t *testing.T, n logic.Network) (string, []string)
	sha256 string
}

// TestFlowOutputPinned pins every entry point that turns an objective
// into a pass pipeline — Session (MIG, netlist and AIG inputs),
// partition.Optimize and the two benchmark legs —
// by the SHA-256 over its circuits of the BLIF output followed by the
// trace's pass names. A digest may change only with an intended change
// of what a flow runs or how its passes are named: per-pass metrics key
// on those names.
func TestFlowOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second synthesis run")
	}
	for _, pin := range flowPins() {
		t.Run(pin.name, func(t *testing.T) {
			names := pinCircuits
			if pin.mesh {
				names = append(names[:len(names):len(names)], "mesh")
			}
			h := sha256.New()
			for _, name := range names {
				var n logic.Network
				switch name {
				case "mesh":
					n = Mesh(pinMesh)
				case "rand":
					n = randomLogic(56)
				default:
					n = getNet(t, name)
				}
				out, passes := pin.run(t, n)
				fmt.Fprintf(h, "%s\n%s\n%s\n", name, out, strings.Join(passes, "\n"))
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != pin.sha256 {
				t.Errorf("sha256 %s, want %s", got, pin.sha256)
			}
		})
	}
}

// randomLogic is a seeded random netlist of 100 and/or/xor/maj gates
// over 8 inputs, each gate reading two or three of the 16 most recent
// signals with its second fanin complemented.
func randomLogic(seed int64) *logic.Netlist {
	r := rand.New(rand.NewSource(seed))
	n := logic.NewNetwork("rand")
	var sigs []logic.Signal
	for i := 0; i < 8; i++ {
		sigs = append(sigs, n.AddInput(fmt.Sprintf("x%d", i)))
	}
	pick := func() logic.Signal { return sigs[max(0, len(sigs)-16)+r.Intn(min(16, len(sigs)))] }
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpXor, logic.OpMaj}
	for range 100 {
		switch op := ops[r.Intn(len(ops))]; op {
		case logic.OpMaj:
			sigs = append(sigs, n.AddGate(op, pick(), pick().Not(), pick()))
		default:
			sigs = append(sigs, n.AddGate(op, pick(), pick().Not()))
		}
	}
	for i := 0; i < 8; i++ {
		n.AddOutput(fmt.Sprintf("y%d", i), sigs[len(sigs)-1-i])
	}
	return n
}

func flowPins() []flowPin {
	// probs is a full-length, uneven input profile.
	probs := func(n logic.Network) []float64 {
		p := make([]float64, n.NumInputs())
		for i := range p {
			p[i] = float64(i%7+1) / 8
		}
		return p
	}
	var pins []flowPin
	for _, o := range []string{"size", "depth", "activity", "flow", "none"} {
		// Effort 3 is the default, so the effort-3 cases also pin it.
		pins = append(pins,
			flowPin{name: o + "/e2", mesh: o == "flow", run: session(logic.WithObjective(o), logic.WithEffort(2))},
			flowPin{name: o + "/e3", mesh: o == "flow", run: session(logic.WithObjective(o))},
		)
	}
	pins = append(pins,
		flowPin{name: "activity+probs", run: func(t *testing.T, n logic.Network) (string, []string) {
			return session(logic.WithObjective("activity"), logic.WithActivityProbs(probs(n)))(t, n)
		}},
		flowPin{name: "flow+fraig", run: session(logic.WithFraig(true))},
		flowPin{name: "aig/resyn2", run: aigSession()},
		flowPin{name: "aig/resyn2+fraig", run: aigSession(logic.WithFraig(true))},
		flowPin{name: "aig/aigscript", run: aigSession(logic.WithStrategy("aigscript"))},
		flowPin{name: "migscript3", mesh: true, run: session(logic.WithStrategy("migscript3"))},
	)
	for _, o := range []string{"size", "depth", "activity", "flow", "none"} {
		pins = append(pins, flowPin{name: "partition/" + o, mesh: true, run: partitionRun(o)})
	}
	pins = append(pins,
		flowPin{name: "bench/mig", run: benchMIG(Config{})},
		flowPin{name: "bench/mig+npn", run: benchMIG(Config{NPN: true})},
		flowPin{name: "bench/mig+fraig", run: benchMIG(Config{Fraig: true})},
		flowPin{name: "bench/mig-script", run: benchMIG(Config{MIGScript: "eliminate(8); reshape-depth; window-rewrite; eliminate"})},
		flowPin{name: "bench/aig", run: benchAIG(Config{})},
		flowPin{name: "bench/aig+fraig", run: benchAIG(Config{Fraig: true})},
	)
	for i := range pins {
		pins[i].sha256 = flowDigests[pins[i].name]
	}
	return pins
}

// flowDigests holds each case's pinned digest.
var flowDigests = map[string]string{
	"size/e2":            "b1cfb9ff6649118b46f476e86dd352ca12b36ff8ce84d4dd9e09016ab6f23b58",
	"size/e3":            "b1cfb9ff6649118b46f476e86dd352ca12b36ff8ce84d4dd9e09016ab6f23b58",
	"depth/e2":           "2b1b036a9c208d60d08213bb893f43aeacc432ba2c439f52e75160481fa4f7b7",
	"depth/e3":           "6000002dcc7a9d011c79f111d90d4c21e0aa2381656209a5cd62927b75c35d93",
	"activity/e2":        "086cecd851ceb3d36a46e34bd61e5f87695e38e734ee122412c4b84dd8551bd2",
	"activity/e3":        "086cecd851ceb3d36a46e34bd61e5f87695e38e734ee122412c4b84dd8551bd2",
	"flow/e2":            "84b1828449fcab18592de61e91ba2016c7407c0737fd75d2d6b75ade5ebda9af",
	"flow/e3":            "95ed030eac05c4c5c1466d69b6c6ca1fa9765ddac14cb0740b54c87efd8d8580",
	"none/e2":            "b0ba6b19ab24b12f2a0f11f456dbfae85b975f8035761b3fb41512ba04dbfa46",
	"none/e3":            "b0ba6b19ab24b12f2a0f11f456dbfae85b975f8035761b3fb41512ba04dbfa46",
	"activity+probs":     "a94d6a55384917d9a9da99ad65a953edac4a3882e90672a1bceb84bb6c2c6c33",
	"flow+fraig":         "baf56be52377a114e681c31d521ff05c84b0b087010020ccbc15c64c30c1ba95",
	"aig/resyn2":         "994f27d967bd3e88946d9c7f74c657304b86f2f94d5714a72036f43bcaa2b538",
	"aig/resyn2+fraig":   "6fb63ada8386d28201259afbd6d5e43e6b49c61c83bb13c41186566ce4687024",
	"aig/aigscript":      "862cb45aca04f515a8db3880919c88893811ad352747f16efc4a2a33ed36967b",
	"migscript3":         "b8aa99a7d402c943f4d8d1ff0ad067151d9eb787b957c1619c155d89460b8f6e",
	"partition/size":     "867d81a0ce5d4b72a9a0c1e0d1f55cbec6f67a6320e7a2ea5028c4ca1194f5df",
	"partition/depth":    "14cb21684301d932fea6017aca85f517f807df416d648f44f3028ad8bd4a47c5",
	"partition/activity": "e71f0f2c7b469f4b43f809da7861b895606c1f9fc4fe26b101aaff8b560b03c9",
	"partition/flow":     "4a6852fee0f91120f0907f47b00c90d602005b75a9f5a957d2c323300363325f",
	"partition/none":     "7ed2383fd6ca71cccfc6fdce1f1d2a552fd0c761a61fd125745f6e28dcef4789",
	"bench/mig":          "7d2f20887dbf33c96599d615e4e59d794b5c1c527cd2d5bd819acc35eeb575c6",
	"bench/mig+npn":      "210d3de4bf9e1adde2d25d8b1fc183cf3c88e740ffae0f4af624ab88d9f66014",
	"bench/mig+fraig":    "baf56be52377a114e681c31d521ff05c84b0b087010020ccbc15c64c30c1ba95",
	"bench/mig-script":   "a8849fbfc7e68db898c3db89a7d9e873e0b83427d0d93e6ccd9c1fe4af6285ca",
	"bench/aig":          "994f27d967bd3e88946d9c7f74c657304b86f2f94d5714a72036f43bcaa2b538",
	"bench/aig+fraig":    "6fb63ada8386d28201259afbd6d5e43e6b49c61c83bb13c41186566ce4687024",
}

// session runs a Session built from opts on the circuit's netlist.
func session(opts ...logic.Option) func(*testing.T, logic.Network) (string, []string) {
	return func(t *testing.T, n logic.Network) (string, []string) {
		t.Helper()
		s, err := logic.NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		out, res, err := s.Optimize(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		return out.EncodeBLIF(), traceNames(res.Trace)
	}
}

// aigSession runs a Session on the circuit's AIG.
func aigSession(opts ...logic.Option) func(*testing.T, logic.Network) (string, []string) {
	run := session(opts...)
	return func(t *testing.T, n logic.Network) (string, []string) {
		return run(t, logic.ToAIG(n))
	}
}

// partitionRun is partition.Optimize as the mesh-partition workload runs
// it (k=4, seed 1), under the given objective.
func partitionRun(objective string) func(*testing.T, logic.Network) (string, []string) {
	return func(t *testing.T, n logic.Network) (string, []string) {
		t.Helper()
		var passes []string
		ctx := logic.ContextWithObserver(context.Background(), func(st logic.Step) {
			passes = append(passes, st.Pass)
		})
		out, _, err := partition.Optimize(ctx, n, partition.Config{K: 4, Seed: 1, Objective: objective})
		if err != nil {
			t.Fatal(err)
		}
		return out.EncodeBLIF(), passes
	}
}

func traceNames(tr logic.Trace) []string {
	names := make([]string, len(tr))
	for i, st := range tr {
		names[i] = st.Pass
	}
	return names
}

// benchMIG runs the benchmark's MIG leg under cfg (defaults filled).
func benchMIG(cfg Config) func(*testing.T, logic.Network) (string, []string) {
	cfg.Defaults()
	return func(t *testing.T, n logic.Network) (string, []string) {
		t.Helper()
		m, met := MIGOptimize(logic.Flat(n), cfg)
		if !met.OK {
			t.Fatal("MIG leg failed")
		}
		return logic.FromNetlist(m.ToNetwork()).EncodeBLIF(), traceNames(met.Trace)
	}
}

// benchAIG runs the benchmark's AIG leg under cfg (defaults filled).
func benchAIG(cfg Config) func(*testing.T, logic.Network) (string, []string) {
	cfg.Defaults()
	return func(t *testing.T, n logic.Network) (string, []string) {
		t.Helper()
		a, met := AIGOptimize(logic.Flat(n), cfg)
		if !met.OK {
			t.Fatal("AIG leg failed")
		}
		return logic.FromNetlist(a.ToNetwork()).EncodeBLIF(), traceNames(met.Trace)
	}
}
