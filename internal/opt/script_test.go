package opt

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func scriptRegistry() *Registry[fake] {
	r := NewRegistry[fake]()
	for _, name := range []string{"eliminate", "reshape-depth", "pushup2"} {
		n := name
		r.Register(n, "a,b", n+"(a=1, b=2)", func(args []int) (Pass[fake], error) {
			a, err := IntArgs(args, 1, 2)
			if err != nil {
				return Pass[fake]{}, err
			}
			return New(n, func(g fake) fake {
				g.size -= a[0]
				g.depth += a[1]
				return g
			}), nil
		})
	}
	return r
}

// TestCanonical checks that textual variants of one pipeline map to a
// single canonical string and that errors stay located.
func TestCanonical(t *testing.T) {
	r := scriptRegistry()
	want := "eliminate; reshape-depth(4, 2); pushup2"
	for _, variant := range []string{
		"eliminate; reshape-depth(4, 2); pushup2",
		"eliminate ;reshape-depth( 4,2 ) ; pushup2;",
		"eliminate # comment\n; reshape-depth(4,2)\n; pushup2",
	} {
		got, err := Canonical(r, variant)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", variant, err)
		}
		if got != want {
			t.Errorf("Canonical(%q) = %q, want %q", variant, got, want)
		}
	}
	if _, err := Canonical(r, "eliminate; nope"); err == nil {
		t.Error("Canonical accepted an unknown pass")
	} else {
		var se *ScriptError
		if !errors.As(err, &se) || se.Token != "nope" {
			t.Errorf("Canonical error = %v, want located ScriptError on \"nope\"", err)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := scriptRegistry()
	for _, script := range []string{
		"eliminate",
		"eliminate(8)",
		"eliminate(8); reshape-depth; eliminate",
		"eliminate(8, -2); pushup2(0)",
		"eliminate()",
	} {
		p, err := Parse(r, script)
		if err != nil {
			t.Fatalf("Parse(%q): %v", script, err)
		}
		canonical := p.String()
		p2, err := Parse(r, canonical)
		if err != nil {
			t.Fatalf("Parse(canonical %q): %v", canonical, err)
		}
		if p2.String() != canonical {
			t.Fatalf("round trip: %q -> %q -> %q", script, canonical, p2.String())
		}
	}
}

func TestParseCanonicalization(t *testing.T) {
	r := scriptRegistry()
	p, err := Parse(r, "  eliminate ( 8 ,3 ) ;\n\t reshape-depth;# comment\n pushup2 ;")
	if err != nil {
		t.Fatal(err)
	}
	want := "eliminate(8, 3); reshape-depth; pushup2"
	if p.String() != want {
		t.Fatalf("canonical = %q, want %q", p.String(), want)
	}
	if len(p.Passes) != 3 {
		t.Fatalf("have %d passes", len(p.Passes))
	}
}

func TestParseAppliesArgs(t *testing.T) {
	r := scriptRegistry()
	p, err := Parse(r, "eliminate(5); eliminate")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := p.Run(context.Background(), fake{size: 10})
	if err != nil {
		t.Fatal(err)
	}
	// 10 - 5 - 1 (default).
	if g.size != 4 {
		t.Fatalf("size = %d, want 4", g.size)
	}
}

func TestParseErrors(t *testing.T) {
	r := scriptRegistry()
	cases := []struct {
		script, wantErr string
	}{
		{"", "empty script"},
		{"  # only a comment\n", "empty script"},
		{"unknown-pass", "unknown pass"},
		{"Eliminate", "expected pass name"},
		{"eliminate(", "unterminated argument list"},
		{"eliminate(1,", "trailing comma"},
		{"eliminate(1,)", "trailing comma"},
		{"eliminate(x)", "expected integer argument"},
		{"eliminate(1 2)", "expected ',' or ')'"},
		{"eliminate reshape-depth", "expected ';'"},
		{"eliminate(1, 2, 3)", "at most 2"},
		{"eliminate;; reshape-depth", "expected pass name"},
	}
	for _, c := range cases {
		_, err := Parse(r, c.script)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) err = %v, want substring %q", c.script, err, c.wantErr)
		}
	}
}

// TestParseErrorLocations pins the located error format: every malformed
// script reports the byte offset and the offending token, e.g.
// `script: unknown pass "reshap" at offset 12`.
func TestParseErrorLocations(t *testing.T) {
	r := scriptRegistry()
	cases := []struct {
		script     string
		wantErr    string // exact full message
		wantOffset int
		wantToken  string
	}{
		{
			script:     "eliminate; reshap",
			wantErr:    `script: unknown pass "reshap" at offset 11 (have reshape-depth, eliminate, pushup2)`,
			wantOffset: 11,
			wantToken:  "reshap",
		},
		{
			script:     "Reshape",
			wantErr:    `script: expected pass name, got "Reshape" at offset 0`,
			wantOffset: 0,
			wantToken:  "Reshape",
		},
		{
			script:     "eliminate(two)",
			wantErr:    `script: expected integer argument, got "two" at offset 10`,
			wantOffset: 10,
			wantToken:  "two",
		},
		{
			script:     "eliminate(1 2)",
			wantErr:    `script: expected ',' or ')', got "2" at offset 12`,
			wantOffset: 12,
			wantToken:  "2",
		},
		{
			script:     "eliminate eliminate",
			wantErr:    `script: expected ';' between statements, got "eliminate" at offset 10`,
			wantOffset: 10,
			wantToken:  "eliminate",
		},
		{
			script:     "pushup2(3",
			wantErr:    `script: unterminated argument list for pass "pushup2" at offset 0`,
			wantOffset: 0,
			wantToken:  "pushup2",
		},
		{
			script:     "eliminate(1,)",
			wantErr:    `script: trailing comma at offset 12`,
			wantOffset: 12,
		},
		{
			script:     "eliminate;; pushup2",
			wantErr:    `script: expected pass name, got ";" at offset 10`,
			wantOffset: 10,
			wantToken:  ";",
		},
		{
			script:     "eliminate(1, 2, 3)",
			wantErr:    `script: bad arguments for pass "eliminate" at offset 0 (got 3 args, want at most 2; usage: eliminate(a=1, b=2))`,
			wantOffset: 0,
			wantToken:  "eliminate",
		},
	}
	for _, c := range cases {
		_, err := Parse(r, c.script)
		if err == nil {
			t.Errorf("Parse(%q): want error, got nil", c.script)
			continue
		}
		if err.Error() != c.wantErr {
			t.Errorf("Parse(%q) err =\n  %s\nwant\n  %s", c.script, err, c.wantErr)
		}
		var se *ScriptError
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q): error is %T, want *ScriptError", c.script, err)
			continue
		}
		if se.Offset != c.wantOffset || se.Token != c.wantToken {
			t.Errorf("Parse(%q): offset/token = %d/%q, want %d/%q",
				c.script, se.Offset, se.Token, c.wantOffset, c.wantToken)
		}
	}
}

func TestRegistrySignatures(t *testing.T) {
	r := NewRegistry[fake]()
	reg := func(name, args string) {
		r.Register(name, args, name+": test pass", func([]int) (Pass[fake], error) {
			return New(name, func(g fake) fake { return g }), nil
		})
	}
	reg("window-rewrite", "k,cuts")
	reg("cleanup", "")
	reg("balance", "")
	if got := r.Signature("window-rewrite"); got != "window-rewrite(k,cuts)" {
		t.Errorf("Signature = %q", got)
	}
	if got := r.Signature("cleanup"); got != "cleanup" {
		t.Errorf("Signature = %q", got)
	}
	if got := r.Signature("nope"); got != "" {
		t.Errorf("Signature(unknown) = %q", got)
	}
	want := []string{"balance", "cleanup", "window-rewrite"}
	got := r.SortedNames()
	if len(got) != len(want) {
		t.Fatalf("SortedNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedNames = %v, want %v", got, want)
		}
	}
}
