package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkSnippet type-checks one source file and returns the named function's
// declaration plus everything needed to query the flow layer.
func checkSnippet(t *testing.T, src, fn string) (*token.FileSet, *ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("snippet", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-checking snippet: %v", err)
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fset, fd, info
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil, nil, nil
}

// reachingLines returns, for every tracked use of name on useLine, the
// sorted source lines of its reaching definitions.
func reachingLines(fset *token.FileSet, du *defUse, useLine int, name string) []int {
	seen := map[int]bool{}
	for id, defs := range du.reach {
		if id.Name != name || fset.Position(id.Pos()).Line != useLine {
			continue
		}
		for _, d := range defs {
			seen[fset.Position(d.node.Pos()).Line] = true
		}
	}
	var lines []int
	for l := range seen {
		lines = append(lines, l)
	}
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			if lines[j] < lines[i] {
				lines[i], lines[j] = lines[j], lines[i]
			}
		}
	}
	return lines
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReachingDefs drives the CFG + reaching-definitions layer through the
// shapes the flow-aware passes depend on: branch joins, loop back edges,
// range bindings, and the escape rule for closures and address-taking.
func TestReachingDefs(t *testing.T) {
	cases := []struct {
		name string
		src  string
		fn   string
		// queries: variable name + line of the use -> lines of defs that reach
		queries []struct {
			name     string
			useLine  int
			defLines []int
		}
	}{
		{
			name: "if-else kills both arms",
			src: `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`,
			fn: "f",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{{name: "x", useLine: 9, defLines: []int{5, 7}}},
		},
		{
			name: "if without else keeps the fallthrough def",
			src: `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`,
			fn: "f",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{{name: "x", useLine: 7, defLines: []int{3, 5}}},
		},
		{
			name: "loop back edge merges the body def",
			src: `package p
func g(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x + 1
	}
	return x
}`,
			fn: "g",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{
				{name: "x", useLine: 5, defLines: []int{3, 5}},
				{name: "x", useLine: 7, defLines: []int{3, 5}},
				{name: "i", useLine: 4, defLines: []int{4}},
			},
		},
		{
			name: "range binding is the definition",
			src: `package p
func r(xs []int) int {
	t := 0
	for _, v := range xs {
		t = t + v
	}
	return t
}`,
			fn: "r",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{
				{name: "v", useLine: 5, defLines: []int{4}},
				{name: "t", useLine: 7, defLines: []int{3, 5}},
			},
		},
		{
			name: "closure capture never kills",
			src: `package p
func h() int {
	x := 1
	fn := func() { x = 5 }
	fn()
	x = 2
	return x
}`,
			fn: "h",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{{name: "x", useLine: 7, defLines: []int{3, 6}}},
		},
		{
			name: "address-taken never kills",
			src: `package p
func k() int {
	x := 1
	p := &x
	*p = 9
	x = 2
	return x
}`,
			fn: "k",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{{name: "x", useLine: 7, defLines: []int{3, 6}}},
		},
		{
			name: "switch arms merge like branches",
			src: `package p
func s(n int) int {
	x := 0
	switch n {
	case 1:
		x = 1
	case 2:
		x = 2
	}
	return x
}`,
			fn: "s",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{{name: "x", useLine: 10, defLines: []int{3, 6, 8}}},
		},
		{
			name: "parameter is the entry definition",
			src: `package p
func q(a int) int {
	b := a
	return b
}`,
			fn: "q",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{
				{name: "a", useLine: 3, defLines: []int{2}},
				{name: "b", useLine: 4, defLines: []int{3}},
			},
		},
		{
			name: "defer expression still sees the defs",
			src: `package p
func d() int {
	x := 1
	defer println(x)
	x = 2
	return x
}`,
			fn: "d",
			queries: []struct {
				name     string
				useLine  int
				defLines []int
			}{
				{name: "x", useLine: 4, defLines: []int{3}},
				{name: "x", useLine: 6, defLines: []int{5}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset, fd, info := checkSnippet(t, tc.src, tc.fn)
			du := buildDefUse(fd.Type, fd.Body, info)
			for _, q := range tc.queries {
				got := reachingLines(fset, du, q.useLine, q.name)
				if !sameInts(got, q.defLines) {
					t.Errorf("%s used at line %d: reaching defs at lines %v, want %v", q.name, q.useLine, got, q.defLines)
				}
			}
		})
	}
}

// TestCallEdges checks the call-edge function on static calls: package
// functions and concrete methods resolve, interface dispatch and a local
// function value are opaque, and a walk reaches function-literal bodies
// only when it descends into them.
func TestCallEdges(t *testing.T) {
	src := `package p

type T struct{}

func (T) m() {}

func helper() {}

func inner() {}

type S interface{ String() string }

func f(s S) {
	helper()
	var t T
	t.m()
	s.String()
	fn := func() { inner() }
	fn()
}`
	fset, fd, info := checkSnippet(t, src, "f")
	file := &ast.File{Name: ast.NewIdent("p"), Decls: []ast.Decl{fd}}
	mod := newModule(fset, []*Unit{{Files: []*ast.File{file}, Info: info}})
	edges := func(withFuncLits bool) []string {
		var got []string
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return withFuncLits
			case *ast.CallExpr:
				got = append(got, mod.callees(info, n)...)
			}
			return true
		})
		return got
	}

	got := edges(true)
	want := []string{"snippet.helper", "snippet.T.m", "snippet.inner"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("with literals: edges %v, want %v", got, want)
	}

	got = edges(false)
	want = []string{"snippet.helper", "snippet.T.m"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("without literals: edges %v, want %v", got, want)
	}
}

// TestCFGShape sanity-checks the graph construction itself: defers are
// collected, every edge targets a block in the graph, and both arms of a
// return-heavy function reach the exit block.
func TestCFGShape(t *testing.T) {
	src := `package p
func f(c bool) int {
	defer println("a")
	defer println("b")
	if c {
		return 1
	}
	return 2
}`
	_, fd, _ := checkSnippet(t, src, "f")
	g := buildCFG(fd.Body)
	if len(g.Defers) != 2 {
		t.Errorf("got %d defers, want 2", len(g.Defers))
	}
	exitPreds := 0
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < 0 || s.Index >= len(g.Blocks) || g.Blocks[s.Index] != s {
				t.Fatalf("block %d has successor with bad index %d", b.Index, s.Index)
			}
			if s == g.Exit {
				exitPreds++
			}
		}
	}
	if exitPreds < 2 {
		t.Errorf("exit block has %d predecessors, want >= 2 (both returns)", exitPreds)
	}
}
