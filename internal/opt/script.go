package opt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Factory builds a pass instance from the integer arguments of a script
// statement (possibly empty).
type Factory[G Graph] func(args []int) (Pass[G], error)

// Registry maps pass names to factories for one graph representation.
type Registry[G Graph] struct {
	order   []string
	entries map[string]regEntry[G]
}

type regEntry[G Graph] struct {
	factory Factory[G]
	args    string // comma-separated argument names, "" = no arguments
	usage   string
}

// NewRegistry returns an empty registry.
func NewRegistry[G Graph]() *Registry[G] {
	return &Registry[G]{entries: make(map[string]regEntry[G])}
}

// Register adds a named pass factory. The name must be a valid script
// identifier (lowercase letter, then lowercase letters, digits or dashes);
// args names the pass's optional integer arguments in order, comma
// separated ("" for an argument-free pass) — it is what Signature renders
// and what -list-passes prints. Duplicate registration panics (registries
// are built at package init).
func (r *Registry[G]) Register(name, args, usage string, f Factory[G]) {
	if !validPassName(name) {
		panic(fmt.Sprintf("opt: invalid pass name %q", name))
	}
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("opt: duplicate pass %q", name))
	}
	r.order = append(r.order, name)
	r.entries[name] = regEntry[G]{factory: f, args: args, usage: usage}
}

// Names lists the registered pass names in registration order.
func (r *Registry[G]) Names() []string {
	return append([]string(nil), r.order...)
}

// SortedNames lists the registered pass names in lexicographic order — the
// deterministic order user-facing listings print.
func (r *Registry[G]) SortedNames() []string {
	names := r.Names()
	sort.Strings(names)
	return names
}

// Usage returns the one-line usage string of a registered pass ("" when the
// pass is unknown).
func (r *Registry[G]) Usage(name string) string { return r.entries[name].usage }

// Signature renders a registered pass's call shape — "window-rewrite(k,cuts)"
// for a pass with arguments, the bare name for one without, "" when the
// pass is unknown.
func (r *Registry[G]) Signature(name string) string {
	e, ok := r.entries[name]
	if !ok {
		return ""
	}
	if e.args == "" {
		return name
	}
	return name + "(" + e.args + ")"
}

// New instantiates a registered pass.
func (r *Registry[G]) New(name string, args ...int) (Pass[G], error) {
	e, ok := r.entries[name]
	if !ok {
		return Pass[G]{}, fmt.Errorf("opt: unknown pass %q (have %s)", name, strings.Join(r.closest(name), ", "))
	}
	p, err := e.factory(args)
	if err != nil {
		return Pass[G]{}, fmt.Errorf("opt: pass %q: %w (usage: %s)", name, err, e.usage)
	}
	return p, nil
}

// MustNew is New panicking on error, for building canned pipelines from
// statically known names.
func (r *Registry[G]) MustNew(name string, args ...int) Pass[G] {
	p, err := r.New(name, args...)
	if err != nil {
		panic(err)
	}
	return p
}

// closest returns the registered names, most similar first, to make
// unknown-pass errors actionable.
func (r *Registry[G]) closest(name string) []string {
	names := r.Names()
	sort.SliceStable(names, func(i, j int) bool {
		return commonPrefix(names[i], name) > commonPrefix(names[j], name)
	})
	if len(names) > 5 {
		names = names[:5]
	}
	return names
}

func commonPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func validPassName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// IntArgs validates optional integer arguments against defaults: at most
// len(defaults) arguments are accepted and missing trailing arguments take
// the default values.
func IntArgs(args []int, defaults ...int) ([]int, error) {
	if len(args) > len(defaults) {
		return nil, fmt.Errorf("got %d args, want at most %d", len(args), len(defaults))
	}
	out := append([]int(nil), defaults...)
	copy(out, args)
	return out, nil
}

// IntArgsMin is IntArgs additionally requiring every provided argument to
// be at least lo, so scripts fail at parse time instead of compiling
// degenerate no-op passes (e.g. a negative iteration count).
func IntArgsMin(args []int, lo int, defaults ...int) ([]int, error) {
	out, err := IntArgs(args, defaults...)
	if err != nil {
		return nil, err
	}
	for i, v := range args {
		if v < lo {
			return nil, fmt.Errorf("arg %d is %d, must be >= %d", i+1, v, lo)
		}
	}
	return out, nil
}

// ScriptError is a script parse or compile failure located at a byte
// offset, carrying the offending token so front-ends can point at the
// mistake (e.g. `script: unknown pass "reshap" at offset 12`).
type ScriptError struct {
	Offset int    // byte offset of the offending token in the script source
	Token  string // the offending token ("" when position-only)
	Msg    string // what went wrong, e.g. "unknown pass"
	Hint   string // optional remedy, e.g. the close registered names
}

// Error implements the error interface.
func (e *ScriptError) Error() string {
	var b strings.Builder
	b.WriteString("script: ")
	b.WriteString(e.Msg)
	if e.Token != "" {
		fmt.Fprintf(&b, " %q", e.Token)
	}
	fmt.Fprintf(&b, " at offset %d", e.Offset)
	if e.Hint != "" {
		fmt.Fprintf(&b, " (%s)", e.Hint)
	}
	return b.String()
}

// stmt is one parsed script statement.
type stmt struct {
	name string
	args []int
	expl bool // args were written explicitly (kept for canonical rendering)
	pos  int  // byte offset, for error messages
}

// canonical renders the statement exactly as Pipeline.String round-trips it.
func (s stmt) canonical() string {
	if !s.expl {
		return s.name
	}
	parts := make([]string, len(s.args))
	for i, a := range s.args {
		parts[i] = strconv.Itoa(a)
	}
	return s.name + "(" + strings.Join(parts, ", ") + ")"
}

// Parse compiles a pass script into a pipeline over the registry's passes.
//
// Grammar (whitespace and newlines are free; '#' comments to end of line):
//
//	script := stmt (';' stmt)* [';']
//	stmt   := name [ '(' [int (',' int)*] ')' ]
//	name   := lowercase letter, then lowercase letters, digits or '-'
//
// Each statement becomes one pipeline pass whose trace label is the
// statement's canonical text, so Parse(p.String()) reproduces p.
func Parse[G Graph](r *Registry[G], script string) (*Pipeline[G], error) {
	stmts, err := parseScript(script)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, &ScriptError{Msg: "empty script"}
	}
	p := &Pipeline[G]{}
	for _, s := range stmts {
		e, known := r.entries[s.name]
		if !known {
			return nil, &ScriptError{
				Offset: s.pos,
				Token:  s.name,
				Msg:    "unknown pass",
				Hint:   "have " + strings.Join(r.closest(s.name), ", "),
			}
		}
		pass, err := e.factory(s.args)
		if err != nil {
			return nil, &ScriptError{
				Offset: s.pos,
				Token:  s.name,
				Msg:    "bad arguments for pass",
				Hint:   fmt.Sprintf("%v; usage: %s", err, e.usage),
			}
		}
		pass.Name = s.canonical()
		p.Passes = append(p.Passes, pass)
	}
	return p, nil
}

// Canonical parses script against r and renders it back in canonical
// statement form — the exact text Pipeline.String produces, with one
// statement per pass and explicit arguments kept as written. Textual
// variants of the same pipeline (whitespace, comments, trailing
// semicolons) map to one canonical string, which is what the strategy
// library stores and the script tuner dedups trials by.
func Canonical[G Graph](r *Registry[G], script string) (string, error) {
	p, err := Parse(r, script)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

func parseScript(src string) ([]stmt, error) {
	var stmts []stmt
	i := 0
	skip := func() {
		for i < len(src) {
			switch {
			case src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r':
				i++
			case src[i] == '#':
				for i < len(src) && src[i] != '\n' {
					i++
				}
			default:
				return
			}
		}
	}
	// token scans the run of non-delimiter characters at offset j, for
	// error reporting.
	token := func(j int) string {
		k := j
		for k < len(src) {
			switch src[k] {
			case ' ', '\t', '\n', '\r', ';', ',', '(', ')', '#':
				if k == j {
					return src[j : j+1] // a lone delimiter is the token
				}
				return src[j:k]
			}
			k++
		}
		return src[j:k]
	}
	for {
		skip()
		if i >= len(src) {
			return stmts, nil
		}
		pos := i
		if src[i] < 'a' || src[i] > 'z' {
			return nil, &ScriptError{Offset: i, Token: token(i), Msg: "expected pass name, got"}
		}
		start := i
		for i < len(src) && (src[i] == '-' || (src[i] >= 'a' && src[i] <= 'z') || (src[i] >= '0' && src[i] <= '9')) {
			i++
		}
		s := stmt{name: src[start:i], pos: pos}
		skip()
		if i < len(src) && src[i] == '(' {
			s.expl = true
			i++
			skip()
			for i < len(src) && src[i] != ')' {
				astart := i
				if src[i] == '-' || src[i] == '+' {
					i++
				}
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
				v, err := strconv.Atoi(src[astart:i])
				if err != nil {
					return nil, &ScriptError{Offset: astart, Token: token(astart), Msg: "expected integer argument, got"}
				}
				s.args = append(s.args, v)
				skip()
				if i < len(src) && src[i] == ',' {
					i++
					skip()
					if i >= len(src) || src[i] == ')' {
						return nil, &ScriptError{Offset: i, Msg: "trailing comma"}
					}
				} else if i < len(src) && src[i] != ')' {
					return nil, &ScriptError{Offset: i, Token: token(i), Msg: "expected ',' or ')', got"}
				}
			}
			if i >= len(src) {
				return nil, &ScriptError{Offset: pos, Token: s.name, Msg: "unterminated argument list for pass"}
			}
			i++ // ')'
		}
		stmts = append(stmts, s)
		skip()
		if i >= len(src) {
			return stmts, nil
		}
		if src[i] != ';' {
			return nil, &ScriptError{Offset: i, Token: token(i), Msg: "expected ';' between statements, got"}
		}
		i++
	}
}
