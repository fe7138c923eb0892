package blif

// Streaming reader: an io.Reader-driven incremental parser. The buffered
// variant (Parse) used to split the whole source into a line slice before
// resolving anything, which made parse memory — not optimization — the
// ceiling for large designs. ParseReader holds one line at a time and
// builds each .names block into the netlist the moment its dependencies
// are defined; only blocks that arrive before their fanins (the writer's
// inverter nets, out-of-order models) are parked, keyed by the first
// missing dependency, and replayed as soon as it appears.
//
// Lines are split in place, and the block being read lives in buffers
// reused from block to block, so a block that can be built at once costs
// one string (its output name) and its gates; only a parked block is
// copied.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"unicode"
	"unicode/utf8"

	"repro/internal/netlist"
)

// block is one .names block: its signal names and its cover rows, each
// run together in one byte slice, and the output value of its last row.
// Name i is names[nameOff[i]:nameOff[i+1]], and rows likewise.
type block struct {
	names, rows     []byte
	nameOff, rowOff []int
	outVal          byte
}

// reset empties b for the next .names line.
func (b *block) reset() {
	b.names, b.nameOff = b.names[:0], append(b.nameOff[:0], 0)
	b.rows, b.rowOff = b.rows[:0], append(b.rowOff[:0], 0)
	b.outVal = '1'
}

// numSignals is the number of names, the output last.
func (b *block) numSignals() int { return len(b.nameOff) - 1 }

func (b *block) signal(i int) []byte { return b.names[b.nameOff[i]:b.nameOff[i+1]] }

func (b *block) numRows() int { return len(b.rowOff) - 1 }

func (b *block) row(i int) []byte { return b.rows[b.rowOff[i]:b.rowOff[i+1]] }

// clone copies b into storage of its own, for parking.
func (b *block) clone() *block {
	return &block{
		names:   bytes.Clone(b.names),
		rows:    bytes.Clone(b.rows),
		nameOff: slices.Clone(b.nameOff),
		rowOff:  slices.Clone(b.rowOff),
		outVal:  b.outVal,
	}
}

// parser is ParseReader's state.
type parser struct {
	net *netlist.Network
	env map[string]netlist.Signal
	// waiting holds parked blocks keyed by the (first) signal they still
	// need; pending counts them so unresolvable inputs are reported.
	waiting map[string][]*block
	pending int

	cur  block // the .names block being read
	open bool  // cur holds a block that is not built yet

	br      *bufio.Reader
	line    []byte   // a logical line that spans reads
	fields  [][]byte // the current line's fields, views into it
	work    []*block // tryBuild's worklist
	deps    []netlist.Signal
	lits    []netlist.Signal
	cubes   []netlist.Signal
	outputs []string
}

// ParseReader reads one BLIF model from r into a netlist, incrementally.
// It accepts exactly the dialect Parse does; Parse delegates here.
func ParseReader(r io.Reader) (*netlist.Network, error) {
	p := &parser{
		net:     netlist.New(""),
		env:     map[string]netlist.Signal{},
		waiting: map[string][]*block{},
		br:      bufio.NewReaderSize(r, 64<<10),
	}
	for {
		raw, err := p.readLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("blif: %w", err)
		}
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		if err := p.parseLine(raw); err != nil {
			return nil, err
		}
	}
	if err := p.flush(); err != nil {
		return nil, err
	}
	if p.pending > 0 {
		return nil, fmt.Errorf("blif: unresolved .names blocks (%d left)", p.pending)
	}

	for _, out := range p.outputs {
		sig, ok := p.env[out]
		if !ok {
			return nil, fmt.Errorf("blif: output %q never defined", out)
		}
		p.net.AddOutput(out, sig)
	}
	if err := p.net.Validate(); err != nil {
		return nil, err
	}
	return p.net, nil
}

// parseLine handles one trimmed, non-empty, non-comment line.
func (p *parser) parseLine(raw []byte) error {
	p.fields = splitFields(p.fields[:0], raw)
	fields := p.fields
	switch string(fields[0]) {
	case ".model":
		if err := p.flush(); err != nil {
			return err
		}
		if len(fields) > 1 {
			p.net.Name = string(fields[1])
		}
	case ".inputs":
		if err := p.flush(); err != nil {
			return err
		}
		for _, f := range fields[1:] {
			in := string(f)
			if err := p.define(in, p.net.AddInput(in)); err != nil {
				return err
			}
		}
	case ".outputs":
		if err := p.flush(); err != nil {
			return err
		}
		for _, f := range fields[1:] {
			p.outputs = append(p.outputs, string(f))
		}
	case ".names":
		if err := p.flush(); err != nil {
			return err
		}
		b := &p.cur
		b.reset()
		for _, f := range fields[1:] {
			b.names = append(b.names, f...)
			b.nameOff = append(b.nameOff, len(b.names))
		}
		p.open = true
	case ".end":
		return p.flush()
	case ".latch", ".gate", ".subckt":
		return fmt.Errorf("blif: unsupported construct %s", fields[0])
	default:
		if !p.open {
			return fmt.Errorf("blif: cover line outside .names: %q", raw)
		}
		b := &p.cur
		if b.numSignals() == 1 {
			// Constant driver: single field row.
			if len(fields) != 1 {
				return fmt.Errorf("blif: bad constant row %q", raw)
			}
			b.rowOff = append(b.rowOff, len(b.rows))
			b.outVal = fields[0][0]
			return nil
		}
		if len(fields) != 2 {
			return fmt.Errorf("blif: bad cover row %q", raw)
		}
		b.rows = append(b.rows, fields[0]...)
		b.rowOff = append(b.rowOff, len(b.rows))
		b.outVal = fields[1][0]
	}
	return nil
}

// flush builds (or parks) the block being read, if any. A block without
// signals is reported here, where it is first used, so an error on a
// line before the flush still comes first.
func (p *parser) flush() error {
	if !p.open {
		return nil
	}
	p.open = false
	if p.cur.numSignals() == 0 {
		return fmt.Errorf("blif: .names without signals")
	}
	return p.tryBuild(&p.cur)
}

// define binds an input name and replays every block parked on it.
func (p *parser) define(name string, sig netlist.Signal) error {
	p.env[name] = sig
	parked := p.waiting[name]
	if len(parked) == 0 {
		return nil
	}
	delete(p.waiting, name)
	p.pending -= len(parked)
	for _, b := range parked {
		if err := p.tryBuild(b); err != nil {
			return err
		}
	}
	return nil
}

// tryBuild resolves a block whose dependencies are all defined (or parks
// it on the first missing one); defining a signal replays every block
// parked on it. The replay is an explicit worklist, so an arbitrarily deep
// dependency chain costs heap, not stack.
func (p *parser) tryBuild(b *block) error {
	p.work = append(p.work[:0], b)
	for len(p.work) > 0 {
		b := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		if missing := p.resolve(b); missing != nil {
			if b == &p.cur {
				b = b.clone()
			}
			p.waiting[string(missing)] = append(p.waiting[string(missing)], b)
			p.pending++
			continue
		}
		sig, err := p.buildCover(b)
		if err != nil {
			return err
		}
		name := string(b.signal(b.numSignals() - 1))
		p.env[name] = sig
		if parked := p.waiting[name]; len(parked) > 0 {
			delete(p.waiting, name)
			p.pending -= len(parked)
			p.work = append(p.work, parked...)
		}
	}
	return nil
}

// resolve looks b's fanin signals up into p.deps and returns the name of
// the first one not defined yet, or nil.
func (p *parser) resolve(b *block) []byte {
	p.deps = p.deps[:0]
	for i := 0; i < b.numSignals()-1; i++ {
		name := b.signal(i)
		s, ok := p.env[string(name)]
		if !ok {
			return name
		}
		p.deps = append(p.deps, s)
	}
	return nil
}

// buildCover adds the gates of b's cover over p.deps and returns its
// output signal.
func (p *parser) buildCover(b *block) (netlist.Signal, error) {
	deps := p.deps
	if len(deps) == 0 {
		// Constant: ".names x" with a "1" row is const1, empty cover const0.
		if b.numRows() > 0 && b.outVal == '1' {
			return netlist.SigConst1, nil
		}
		return netlist.SigConst0, nil
	}
	p.cubes = p.cubes[:0]
	for r := 0; r < b.numRows(); r++ {
		row := b.row(r)
		if len(row) != len(deps) {
			return netlist.SigConst0, fmt.Errorf("blif: row %q width %d, want %d", row, len(row), len(deps))
		}
		p.lits = p.lits[:0]
		for i, c := range row {
			switch c {
			case '1':
				p.lits = append(p.lits, deps[i])
			case '0':
				p.lits = append(p.lits, deps[i].Not())
			case '-':
			default:
				bad, _ := utf8.DecodeRune(row[i:])
				return netlist.SigConst0, fmt.Errorf("blif: bad cover character %q", bad)
			}
		}
		var cube netlist.Signal
		switch len(p.lits) {
		case 0:
			cube = netlist.SigConst1
		case 1:
			cube = p.lits[0]
		default:
			cube = p.net.AddGate(netlist.And, p.lits...)
		}
		p.cubes = append(p.cubes, cube)
	}
	var f netlist.Signal
	switch len(p.cubes) {
	case 0:
		f = netlist.SigConst0
	case 1:
		f = p.cubes[0]
	default:
		f = p.net.AddGate(netlist.Or, p.cubes...)
	}
	if b.outVal == '0' {
		f = f.Not()
	}
	return f, nil
}

// readLine yields one logical line as a byte slice valid until the next
// call: the common case is a zero-copy view into the bufio buffer; lines
// longer than the buffer and backslash continuations accumulate into a
// reused scratch slice. Only the names a line defines are ever
// materialized as strings, so blank space and comments cost nothing per
// line.
func (p *parser) readLine() ([]byte, error) {
	p.line = p.line[:0]
	joining := false
	for {
		chunk, err := p.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			p.line = append(p.line, chunk...)
			joining = true
			continue
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		atEOF := err == io.EOF
		if atEOF && len(chunk) == 0 && len(p.line) == 0 {
			return nil, io.EOF
		}
		if n := len(chunk); n > 0 && chunk[n-1] == '\n' {
			chunk = chunk[:n-1]
		}
		if n := len(chunk); n > 0 && chunk[n-1] == '\r' {
			chunk = chunk[:n-1]
		}
		// A trailing backslash joins the next line.
		if n := len(chunk); !atEOF && n > 0 && chunk[n-1] == '\\' {
			p.line = append(p.line, chunk[:n-1]...)
			p.line = append(p.line, ' ')
			joining = true
			continue
		}
		if joining {
			p.line = append(p.line, chunk...)
			return p.line, nil
		}
		return chunk, nil
	}
}

// splitFields appends to dst the fields of line, separated by white space
// as strings.Fields defines it, as views into line.
func splitFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		c, size := rune(line[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(c) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}
