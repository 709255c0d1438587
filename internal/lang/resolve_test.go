package lang

import "testing"

// TestResolveMessages pins every name-resolution diagnostic, verbatim and
// with its position, so the resolver's lookup structures can change without
// changing what a user sees.
func TestResolveMessages(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"dup-global", `int g; int g; int main() { return 0; }`,
			`1:12: duplicate global "g"`},
		{"dup-func", `int f() { return 1; } int f() { return 2; } int main() { return 0; }`,
			`1:27: duplicate function "f"`},
		{"func-global-collision", `int f; int f() { return 1; } int main() { return 0; }`,
			`1:12: function "f" collides with a global`},
		{"dup-param", `int f(int a, int a) { return a; } int main() { return 0; }`,
			`1:5: duplicate parameter "a" in f`},
		{"param-shadows-func", `int f() { return 1; } int h(int f) { return 0; } int main() { return 0; }`,
			`1:27: parameter "f" shadows a function`},
		{"local-shadows-func", `int f() { return 1; } int main() { int f; return 0; }`,
			`1:40: local "f" shadows a function`},
		{"dup-local", `int main() { int x; int x; return 0; }`,
			`1:25: duplicate local "x" in main (MicroC locals have flat function scope)`},
		{"undefined-callee-stmt", `int main() { q(1); return 0; }`,
			`1:14: call to undefined function "q"`},
		{"undefined-callee-expr", `int main() { int x; x = q(1); return 0; }`,
			`1:21: call to undefined function "q"`},
		{"call-local-int", `int main() { int x; x(); return 0; }`,
			`1:21: "x" is not a function or fnptr`},
		{"call-global-int", `int g; int main() { g(); return 0; }`,
			`1:21: "g" is not a function or fnptr`},
		{"void-value-nested", `void f() { } int main() { int x; x = f() + 1; return 0; }`,
			`1:34: void function f used as a value`},
		{"void-value-assign", `void f() { } int main() { int x; x = f(); return 0; }`,
			`1:34: void function f used as a value`},
		{"void-value-printf", `void f() { } int main() { printf("%d", f()); return 0; }`,
			`1:27: void function f used as a value`},
		{"arity-stmt", `void f(int a) { } int main() { f(1, 2); return 0; }`,
			`1:32: call to f with 2 args, want 1`},
		{"arity-expr", `int f(int a) { return a; } int main() { int x; x = 1 + f(1, 2); return 0; }`,
			`1:48: call to f with 2 args, want 1`},
		{"assign-undeclared", `int main() { x = 1; return 0; }`,
			`1:14: assignment to undeclared variable "x"`},
		{"call-target-undeclared", `int f() { return 1; } int main() { int y; y = f(); z = f(); return 0; }`,
			`1:52: assignment to undeclared variable "z"`},
		{"use-undeclared", `int main() { int y; y = x; return 0; }`,
			`1:21: undeclared variable "x"`},
		{"scanf-undeclared", `int main() { scanf("%d", &x); return 0; }`,
			`1:14: scanf into undeclared variable "x"`},
		{"addr-of-non-function", `int main() { int x; x = &q; return 0; }`,
			`1:21: &q does not name a function`},
		{"void-returns-value", `void f() { return 3; } int main() { f(); return 0; }`,
			`1:12: void function f returns a value`},
		{"no-main", `int f() { return 1; }`,
			`program has no main function`},
		{"main-params", `int main(int a) { return 0; }`,
			`1:5: main must take no parameters`},
		// main's shape is checked before any parameter is scoped.
		{"main-param-named-func", `int f() { return 1; } int main(int f) { return 0; }`,
			`1:27: main must take no parameters`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil || err.Error() != tc.want {
				t.Errorf("Parse error = %v\nwant            %s", err, tc.want)
			}
		})
	}
}

// TestResolveVoidCallStmtTarget pins the CallStmt diagnostic that source
// text cannot reach (the parser reports a void call in expression position
// first) but a programmatically edited program can.
func TestResolveVoidCallStmtTarget(t *testing.T) {
	prog := MustParse(`void f() { } int main() { int x; f(); return 0; }`)
	for _, s := range prog.Func("main").Stmts() {
		if c, ok := s.(*CallStmt); ok {
			c.Target = "x"
		}
	}
	const want = `1:34: void function f used in assignment`
	if err := Validate(prog); err == nil || err.Error() != want {
		t.Errorf("Validate error = %v, want %s", err, want)
	}
}

// TestResolveCallClassification pins how calls are classified: direct
// calls name a function; calls through fnptr globals, locals and
// parameters are indirect; and a plain-int local that shadows a fnptr
// global still calls indirectly, because the global's fnptr flag is kept
// for the name.
func TestResolveCallClassification(t *testing.T) {
	prog := MustParse(`
fnptr g;
fnptr h;
int f() { return 1; }
int viaParam(fnptr q) { int r; r = q(); return r; }
int viaGlobal() { int r; r = g(); return r; }
int viaLocal() { fnptr p; int r; p = f; r = p(); return r; }
int shadowed() { int h; int r; h = 0; r = h(); return r; }
int main() {
  int x;
  g = f;
  h = &f;
  x = f();
  x = viaParam(f);
  printf("%d", x);
  return 0;
}
`)
	want := map[string]map[string]bool{ // func -> callee -> indirect
		"viaParam":  {"q": true},
		"viaGlobal": {"g": true},
		"viaLocal":  {"p": true},
		"shadowed":  {"h": true},
		"main":      {"f": false, "viaParam": false},
	}
	for fname, calls := range want {
		got := map[string]bool{}
		for _, s := range prog.Func(fname).Stmts() {
			if c, ok := s.(*CallStmt); ok {
				got[c.Callee] = c.Indirect
			}
		}
		if len(got) != len(calls) {
			t.Errorf("%s: calls %v, want %v", fname, got, calls)
		}
		for callee, ind := range calls {
			if g, ok := got[callee]; !ok || g != ind {
				t.Errorf("%s: call to %s indirect=%v (present %v), want %v", fname, callee, g, ok, ind)
			}
		}
	}
	// A variable reference naming a function resolves to a FuncRef, in
	// assignments and in argument position.
	for _, s := range prog.Func("main").Stmts() {
		switch x := s.(type) {
		case *AssignStmt:
			if _, ok := x.RHS.(*FuncRef); !ok {
				t.Errorf("%s = %T, want *FuncRef", x.LHS, x.RHS)
			}
		case *CallStmt:
			if x.Callee == "viaParam" {
				if _, ok := x.Args[0].(*FuncRef); !ok {
					t.Errorf("viaParam argument = %T, want *FuncRef", x.Args[0])
				}
			}
		}
	}
}
