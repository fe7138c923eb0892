package main

// The benchmark's own BLIF evaluator. It reads the subset the program
// writes (.model, .inputs, .outputs, single-output .names covers, .end) and
// simulates 64 input patterns per machine word. It shares no code with
// logic.Decode*, so a decoder or encoder bug cannot hide a wrong output
// from the check.

import (
	"bufio"
	"fmt"
	"math/bits"
	"strings"
)

// blifModel is a parsed BLIF model: the interface in declaration order and
// the cover that defines every other signal.
type blifModel struct {
	inputs  []string
	outputs []string
	covers  map[string]*blifCover
}

// blifCover is one .names block: cube rows over its fanins, listing the
// on-set (output column 1) or the off-set (output column 0).
type blifCover struct {
	fanins []string
	cubes  []string
	offSet bool
}

// parseBLIF reads one BLIF model.
func parseBLIF(src string) (*blifModel, error) {
	m := &blifModel{covers: map[string]*blifCover{}}
	var cur *blifCover
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	pending := ""
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line, pending = pending+line, ""
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !strings.HasPrefix(f[0], ".") {
			if cur == nil {
				return nil, fmt.Errorf("line %d: cover row outside .names", lineNo)
			}
			if err := cur.addRow(f); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		cur = nil
		switch f[0] {
		case ".model", ".end":
		case ".inputs":
			m.inputs = append(m.inputs, f[1:]...)
		case ".outputs":
			m.outputs = append(m.outputs, f[1:]...)
		case ".names":
			if len(f) < 2 {
				return nil, fmt.Errorf("line %d: .names without a signal", lineNo)
			}
			out := f[len(f)-1]
			if _, dup := m.covers[out]; dup {
				return nil, fmt.Errorf("line %d: signal %q defined twice", lineNo, out)
			}
			cur = &blifCover{fanins: f[1 : len(f)-1]}
			m.covers[out] = cur
		default:
			return nil, fmt.Errorf("line %d: unsupported directive %s", lineNo, f[0])
		}
	}
	return m, sc.Err()
}

// addRow appends one cover row: "11- 1", or "1" for a constant.
func (c *blifCover) addRow(f []string) error {
	var cube, out string
	switch {
	case len(f) == 1 && len(c.fanins) == 0:
		out = f[0]
	case len(f) == 2:
		cube, out = f[0], f[1]
	default:
		return fmt.Errorf("malformed cover row %q", strings.Join(f, " "))
	}
	if len(cube) != len(c.fanins) || strings.Trim(cube, "01-") != "" {
		return fmt.Errorf("cube %q does not fit %d fanins", cube, len(c.fanins))
	}
	if out != "0" && out != "1" {
		return fmt.Errorf("output column %q", out)
	}
	offSet := out == "0"
	if len(c.cubes) > 0 && offSet != c.offSet {
		return fmt.Errorf("cover mixes on-set and off-set rows")
	}
	c.offSet = offSet
	c.cubes = append(c.cubes, cube)
	return nil
}

// simulate evaluates every output on the given patterns: in[i] holds the
// values of input i, 64 patterns per word, words words each.
func (m *blifModel) simulate(in [][]uint64, words int) ([][]uint64, error) {
	if len(in) != len(m.inputs) {
		return nil, fmt.Errorf("%d input patterns for %d inputs", len(in), len(m.inputs))
	}
	vals := make(map[string][]uint64, len(m.covers)+len(m.inputs))
	for i, name := range m.inputs {
		vals[name] = in[i]
	}
	active := map[string]bool{}
	var eval func(name string) ([]uint64, error)
	eval = func(name string) ([]uint64, error) {
		if v, ok := vals[name]; ok {
			return v, nil
		}
		c, ok := m.covers[name]
		if !ok {
			return nil, fmt.Errorf("signal %q is never defined", name)
		}
		if active[name] {
			return nil, fmt.Errorf("combinational loop through %q", name)
		}
		active[name] = true
		fan := make([][]uint64, len(c.fanins))
		for k, f := range c.fanins {
			v, err := eval(f)
			if err != nil {
				return nil, err
			}
			fan[k] = v
		}
		delete(active, name)
		v := c.eval(fan, words)
		vals[name] = v
		return v, nil
	}
	out := make([][]uint64, len(m.outputs))
	for o, name := range m.outputs {
		v, err := eval(name)
		if err != nil {
			return nil, err
		}
		out[o] = v
	}
	return out, nil
}

// eval computes the cover's value from its fanins' values.
func (c *blifCover) eval(fan [][]uint64, words int) []uint64 {
	out := make([]uint64, words)
	for _, cube := range c.cubes {
		for w := range out {
			t := ^uint64(0)
			for k := 0; k < len(cube); k++ {
				switch cube[k] {
				case '1':
					t &= fan[k][w]
				case '0':
					t &^= fan[k][w]
				}
			}
			out[w] |= t
		}
	}
	if c.offSet {
		for w := range out {
			out[w] = ^out[w]
		}
	}
	return out
}

// simCheck simulates ref and got on the same seeded random patterns, inputs
// and outputs matched by position, and names the first output that
// differs.
func simCheck(ref, got string, seed uint64, words int) error {
	a, err := parseBLIF(ref)
	if err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	b, err := parseBLIF(got)
	if err != nil {
		return fmt.Errorf("reading output: %w", err)
	}
	if len(a.inputs) != len(b.inputs) || len(a.outputs) != len(b.outputs) {
		return fmt.Errorf("interface changed: %d/%d inputs/outputs became %d/%d",
			len(a.inputs), len(a.outputs), len(b.inputs), len(b.outputs))
	}
	rng := splitmix(seed)
	in := make([][]uint64, len(a.inputs))
	for i := range in {
		in[i] = make([]uint64, words)
		for w := range in[i] {
			in[i][w] = rng.next()
		}
	}
	va, err := a.simulate(in, words)
	if err != nil {
		return fmt.Errorf("simulating input: %w", err)
	}
	vb, err := b.simulate(in, words)
	if err != nil {
		return fmt.Errorf("simulating output: %w", err)
	}
	for o := range va {
		for w := range va[o] {
			if d := va[o][w] ^ vb[o][w]; d != 0 {
				return fmt.Errorf("output %d (%s) differs on pattern %d", o, a.outputs[o], 64*w+bits.TrailingZeros64(d))
			}
		}
	}
	return nil
}
