// Command miggen emits the MCNC benchmark stand-ins (logic/bench) as
// structural Verilog or BLIF, so they can be inspected or fed to other
// tools.
//
//	miggen -list
//	miggen -bench my_adder -format v > my_adder.v
//	miggen -bench C6288 -format blif > C6288.blif
//	miggen -compress 1200 -format v > compress.v
//	miggen -nodes 100000 -format blif > mesh100k.blif
//
// The -nodes flag emits the heterogeneous tiled mesh (logic/bench.Mesh):
// a deterministic large design — adder, cube-logic and parity tiles with
// cross-tile wiring — sized for whole-design scale checks.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/logic"
	"repro/logic/bench"
)

func main() {
	list := flag.Bool("list", false, "list available benchmarks")
	name := flag.String("bench", "", "benchmark name")
	format := flag.String("format", "v", "output format: v|blif")
	compress := flag.Int("compress", 0, "emit the compression circuit with the given word count instead")
	meshNodes := flag.Int("nodes", 0, "emit the heterogeneous tiled mesh with at least this many gates instead")
	flag.Parse()

	if *list {
		for _, n := range bench.Circuits() {
			row, _ := bench.PaperRowFor(n)
			fmt.Printf("%-10s %5d inputs %5d outputs\n", n, row.Inputs, row.Outputs)
		}
		return
	}

	var (
		n   logic.Network
		err error
	)
	switch {
	case *meshNodes > 0:
		n = bench.Mesh(*meshNodes)
	case *compress > 0:
		n = bench.Compress(*compress)
	case *name != "":
		n, err = bench.Circuit(*name)
	default:
		fmt.Fprintln(os.Stderr, "miggen: need -bench, -compress, -nodes or -list")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	f, err := logic.ParseFormat(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "miggen: %v\n", err)
		os.Exit(2)
	}
	out, err := logic.Encode(n, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(out)
}
