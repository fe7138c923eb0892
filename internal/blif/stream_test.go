package blif

import (
	"strings"
	"testing"

	"repro/internal/mcnc"
	"repro/internal/netlist"
)

// TestParseReaderMatchesParse pins the streaming reader to the string
// front-end on real circuits: same bytes in, byte-identical netlist out.
func TestParseReaderMatchesParse(t *testing.T) {
	for _, name := range []string{"my_adder", "C1355", "count"} {
		n, err := mcnc.Generate(name)
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		src := Write(n)
		a, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		b, err := ParseReader(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: ParseReader: %v", name, err)
		}
		if Write(a) != Write(b) {
			t.Fatalf("%s: streaming parse diverged from string parse", name)
		}
	}
}

// TestParseReaderOutOfOrder parks blocks that arrive before their fanins
// (the writer's inverter nets do this on every circuit with complemented
// edges) — here the whole body is reversed.
func TestParseReaderOutOfOrder(t *testing.T) {
	src := `.model ooo
.inputs a b c
.outputs y
.names u v y
11 1
.names c t v
10 1
.names a b u
11 1
.names b t
0 1
.end
`
	n, err := ParseReader(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumInputs() != 3 || n.NumOutputs() != 1 {
		t.Fatalf("i/o = %d/%d", n.NumInputs(), n.NumOutputs())
	}
	// t = ¬b, v = c·¬t = c·b, u = a·b, so y = u·v = a·b·c.
	got := n.OutputWords([]uint64{0b1111, 0b0011, 0b0101})[0] & 0xf
	if got != 0b0001 {
		t.Fatalf("function wrong: got %04b", got)
	}
}

// TestParseReaderContinuationLines joins backslash-continued lines across
// reads, exactly like the buffered parser's ReplaceAll did.
func TestParseReaderContinuationLines(t *testing.T) {
	src := ".model cont\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
	n, err := ParseReader(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumInputs() != 2 {
		t.Fatalf("continuation lost an input: %d", n.NumInputs())
	}
}

// TestParseReaderUnresolved reports blocks whose dependencies never appear.
func TestParseReaderUnresolved(t *testing.T) {
	src := ".model bad\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n"
	if _, err := ParseReader(strings.NewReader(src)); err == nil {
		t.Fatal("undefined fanin accepted")
	}
}

// TestParseReaderAllocBound is the peak-allocation regression gate for the
// streaming satellite. Netlist construction dominates the allocations of
// any correct parser, so a plain multiple-of-source bound cannot separate
// streaming from buffering. Instead the source is padded with several
// megabytes of comment lines: the streaming reader walks them as zero-copy
// buffer views (no per-line string), so its total allocation stays well
// under ONE copy of the source, while the old buffered front-end started
// with a full ReplaceAll copy plus a per-line slice (≥ 2× the source)
// before resolving anything. Gate: total bytes per parse < len(src)/2.
func TestParseReaderAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	n, err := mcnc.Generate("C6288")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	pad := "# padding line: a buffered parser copies this, a streaming one must not\n"
	for sb.Len() < 8<<20 {
		sb.WriteString(pad)
	}
	sb.WriteString(Write(n))
	src := sb.String()
	r := strings.NewReader(src)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(src)
			if _, err := ParseReader(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	perParse := res.AllocedBytesPerOp()
	limit := int64(len(src)) / 2
	if perParse > limit {
		t.Fatalf("ParseReader allocates %d B per parse of a %d B source (limit %d): whole-file buffering regression",
			perParse, len(src), limit)
	}
	t.Logf("ParseReader: %d B source, %d B allocated per parse (%.3fx)",
		len(src), perParse, float64(perParse)/float64(len(src)))
}

// BenchmarkParseReader tracks streaming-parse throughput and allocation on
// a real circuit (run with -benchmem to see B/op).
func BenchmarkParseReader(b *testing.B) {
	n, err := mcnc.Generate("C6288")
	if err != nil {
		b.Fatal(err)
	}
	src := Write(n)
	r := strings.NewReader(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(src)
		if _, err := ParseReader(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseReaderLargeEquivalent round-trips a mid-size circuit through
// the streaming path and checks structure survives.
func TestParseReaderLargeEquivalent(t *testing.T) {
	n, err := mcnc.Generate("C6288")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReader(strings.NewReader(Write(n)))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInputs() != n.NumInputs() || back.NumOutputs() != n.NumOutputs() {
		t.Fatalf("interface changed: %d/%d vs %d/%d",
			back.NumInputs(), back.NumOutputs(), n.NumInputs(), n.NumOutputs())
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	var _ = netlist.SigConst0
}

// TestParseReaderErrors pins the reader's error for each kind of bad
// input.
func TestParseReaderErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{".model x\n.latch a b\n.end\n", "blif: unsupported construct .latch"},
		{".model x\n11 1\n", `blif: cover line outside .names: "11 1"`},
		{".model x\n.inputs a\n.outputs y\n.names y\n1 1\n", `blif: bad constant row "1 1"`},
		{".model x\n.inputs a\n.outputs y\n.names a y\n1\n", `blif: bad cover row "1"`},
		{".model x\n.inputs a b\n.outputs y\n.names a b y\n1 1\n", `blif: row "1" width 1, want 2`},
		{".model x\n.inputs a\n.outputs y\n.names a y\nx 1\n", `blif: bad cover character 'x'`},
		{".model x\n.inputs a b\n.outputs y\n.names a b y\n1é 1\n", `blif: row "1é" width 3, want 2`},
		{".model x\n.inputs a b c\n.outputs y\n.names a b c y\n1é 1\n", `blif: bad cover character 'é'`},
		{".model x\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n", "blif: unresolved .names blocks (1 left)"},
		{".model x\n.inputs a\n.outputs y z\n.names a y\n1 1\n", `blif: output "z" never defined`},
		{".model x\n.inputs a\n.outputs y\n.names\n.names a y\n1 1\n", "blif: .names without signals"},
		{".model x\n.names\n.latch a b\n", "blif: unsupported construct .latch"},
	}
	for _, tc := range cases {
		_, err := ParseReader(strings.NewReader(tc.src))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %s", tc.src, err, tc.want)
		}
	}
}
