package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// The interprocedural half of the flow layer. forward (cfg.go) solves a
// dataflow problem inside one body; solve solves a summary problem across
// the module, over one enumeration of its bodies (declared functions, and
// function literals keyed by position) and one call-edge function,
// callees. A client supplies only its per-body transfer and an equality.
//
// callees resolves a call through a struct field or a package variable to
// every value stored there, when each stored value is visible: a function
// literal, a named function, nil, a method value or expression on a
// concrete type, another such slot, the result of a module function that
// returns such values, or a parameter of a plain module function only ever
// called directly, whose every call site passes such a value. Anything
// else is opaque — interface dispatch, a call through a parameter or a
// local, a slot whose address is taken — and contributes nothing.

// fnBody is one analyzable body: a declared function or a function literal.
type fnBody struct {
	unit    *Unit
	key     string // funcKey for declared functions, the position for literals
	ftype   *ast.FuncType
	recv    *ast.FieldList // nil for literals and plain functions
	body    *ast.BlockStmt
	lit     bool // a function literal
	spawned bool // a literal run by a go statement
}

// valueSite is one value flowing into a slot, a parameter or a result; a
// nil expr is one the module cannot see (a tuple assignment, say).
type valueSite struct {
	info *types.Info
	expr ast.Expr
}

// module is every body of one analyzer run and what callees reads.
type module struct {
	fset    *token.FileSet
	bodies  []*fnBody
	index   map[string]int          // body key -> body
	flows   map[string][]valueSite  // "slot K", "param F#i", "result F" -> its values
	params  map[types.Object]string // a plain function's parameter -> "param F#i"
	escaped map[string]bool         // "slot K" whose address is taken; "param F" for F used other than by a call
}

func newModule(fset *token.FileSet, units []*Unit) *module {
	m := &module{fset: fset, index: map[string]int{}, flows: map[string][]valueSite{},
		params: map[types.Object]string{}, escaped: map[string]bool{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					key := m.litKey(fd)
					if obj, ok := u.Info.Defs[fd.Name].(*types.Func); ok && funcKey(obj) != "" {
						key = funcKey(obj)
					}
					m.add(&fnBody{unit: u, key: key, ftype: fd.Type, recv: fd.Recv, body: fd.Body})
				}
			}
			m.indexFile(u, f)
		}
	}
	return m
}

func (m *module) litKey(n ast.Node) string { return m.fset.Position(n.Pos()).String() }

// add enumerates one body, its returned values, and a plain function's
// parameters.
func (m *module) add(b *fnBody) {
	if _, dup := m.index[b.key]; dup {
		b.key = m.litKey(b.body) // a second init, say: never a callee
	}
	m.index[b.key] = len(m.bodies)
	m.bodies = append(m.bodies, b)
	info := b.unit.Info
	if !b.lit && b.recv == nil {
		i := 0
		for _, field := range b.ftype.Params.List {
			for _, name := range field.Names {
				m.params[info.Defs[name]] = "param " + b.key + "#" + strconv.Itoa(i)
				i++
			}
		}
	}
	ast.Inspect(b.body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			site := valueSite{info: info}
			if len(ret.Results) == 1 {
				site.expr = ret.Results[0]
			}
			m.flows["result "+b.key] = append(m.flows["result "+b.key], site)
		}
		_, lit := n.(*ast.FuncLit)
		return !lit // a body of its own
	})
}

// indexFile enumerates one file's function literals and records every
// value stored in a func-typed slot, every argument of a direct call,
// every slot whose address is taken, and every function used other than
// as a callee.
func (m *module) indexFile(u *Unit, f *ast.File) {
	info := u.Info
	store := func(key string, t types.Type, value ast.Expr) {
		if _, ok := t.Underlying().(*types.Signature); ok && key != "" {
			m.flows["slot "+key] = append(m.flows["slot "+key], valueSite{info, value})
		}
	}
	assign := func(lhs, rhs []ast.Expr) {
		for i, e := range lhs {
			if t := info.TypeOf(e); t != nil { // nil for _ and absent range keys
				var value ast.Expr
				if len(lhs) == len(rhs) {
					value = rhs[i]
				}
				store(slotKey(info, e), t, value)
			}
		}
	}
	callee, spawned := map[*ast.Ident]bool{}, map[*ast.FuncLit]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				spawned[lit] = true
			}
		case *ast.FuncLit:
			m.add(&fnBody{unit: u, key: m.litKey(n), ftype: n.Type, body: n.Body, lit: true, spawned: spawned[n]})
		case *ast.AssignStmt:
			assign(n.Lhs, n.Rhs)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				assign([]ast.Expr{n.Key, n.Value}, nil)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if obj := info.Defs[name]; obj != nil && len(n.Values) > 0 {
					var value ast.Expr
					if len(n.Values) == len(n.Names) {
						value = n.Values[i]
					}
					store(pkgVarKey(obj), obj.Type(), value)
				}
			}
		case *ast.CompositeLit:
			structFields(info, n, func(owner *types.Named, field *types.Var, value ast.Expr) {
				store(namedKeyOf(owner)+"."+field.Name(), field.Type(), value)
			})
		case *ast.UnaryExpr:
			if key := slotKey(info, n.X); n.Op == token.AND && key != "" {
				m.escaped["slot "+key] = true
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				callee[fun] = true
			case *ast.SelectorExpr:
				callee[fun.Sel] = true
			}
			if key := staticCalleeKey(info, n); key != "" {
				for i, arg := range n.Args {
					if _, tuple := info.TypeOf(arg).(*types.Tuple); tuple || n.Ellipsis.IsValid() {
						m.escaped["param "+key] = true // arguments not one per parameter
					}
					flow := "param " + key + "#" + strconv.Itoa(i)
					m.flows[flow] = append(m.flows[flow], valueSite{info, arg})
				}
			}
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && !callee[n] {
				m.escaped["param "+funcKey(fn)] = true
			}
		}
		return true
	})
}

// callees is the module's one call-edge function: the keys of the bodies
// a call may run, sorted, or nil when the call is opaque. A key with no
// body in the module (the standard library) has no summary.
func (m *module) callees(info *types.Info, call *ast.CallExpr) []string {
	var set map[string]bool
	if key := staticCalleeKey(info, call); key != "" {
		set = map[string]bool{key: true}
	} else if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		set = map[string]bool{m.litKey(lit): true}
	} else if key := slotKey(info, call.Fun); key != "" {
		set = m.resolve("slot "+key, map[string]bool{})
	}
	if set == nil {
		return nil
	}
	return sortedKeys(set)
}

// resolve unions the values of one flow, nil when one of them is opaque.
// visiting breaks cycles: a flow already being resolved adds nothing.
func (m *module) resolve(flow string, visiting map[string]bool) map[string]bool {
	set := map[string]bool{}
	if m.escaped[flow] {
		return nil
	}
	if visiting[flow] {
		return set
	}
	visiting[flow] = true
	defer delete(visiting, flow)
	for _, s := range m.flows[flow] {
		v := m.value(s.info, s.expr, visiting)
		if v == nil {
			return nil
		}
		for k := range v {
			set[k] = true
		}
	}
	return set
}

// value resolves a function-valued expression to the bodies it may
// denote, nil when it is opaque.
func (m *module) value(info *types.Info, e ast.Expr, visiting map[string]bool) map[string]bool {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return map[string]bool{m.litKey(e): true}
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok {
			obj = info.Uses[e.Sel]
		} else if sel.Kind() == types.FieldVal {
			return m.resolve("slot "+fieldKeyOf(sel), visiting)
		} else if key := methodKey(sel); key != "" {
			return map[string]bool{key: true}
		}
	case *ast.CallExpr:
		if len(e.Args) == 1 && info.Types[e.Fun].IsType() {
			return m.value(info, e.Args[0], visiting) // a conversion
		}
		keys := m.callees(info, e)
		set := map[string]bool{}
		for _, key := range keys {
			v := m.resolve("result "+key, visiting)
			if _, ok := m.index[key]; !ok || v == nil {
				return nil
			}
			for k := range v {
				set[k] = true
			}
		}
		if keys == nil {
			return nil
		}
		return set
	}
	switch obj := obj.(type) {
	case *types.Nil:
		return map[string]bool{}
	case *types.Func:
		if key := funcKey(obj); key != "" {
			return map[string]bool{key: true}
		}
	case *types.Var:
		if key := pkgVarKey(obj); key != "" {
			return m.resolve("slot "+key, visiting)
		}
		if flow, ok := m.params[obj]; ok && !m.escaped[flow[:strings.LastIndexByte(flow, '#')]] {
			return m.resolve(flow, visiting)
		}
	}
	return nil
}

// solve computes one summary per body to a fixpoint. transfer computes a
// body's summary from the summaries it asks for (the zero S for a key with
// no body); each ask records the asking body as a reader, and a body whose
// summary changes requeues only its readers. For lockorder and for
// cowhygiene's mutation summaries the readers are exactly the callers.
func solve[S any](m *module, transfer func(b *fnBody, summary func(key string) S) S, equal func(a, b S) bool) map[string]S {
	n := len(m.bodies)
	sums, readers, queued, work := make([]S, n), make([][]int, n), make([]bool, n), make([]int, n)
	reads := map[[2]int]bool{}
	for i := range work {
		work[i], queued[i] = i, true
	}
	for len(work) > 0 {
		i := work[0]
		work, queued[i] = work[1:], false
		next := transfer(m.bodies[i], func(key string) S {
			j, ok := m.index[key]
			if !ok {
				var zero S
				return zero
			}
			if !reads[[2]int{j, i}] {
				reads[[2]int{j, i}] = true
				readers[j] = append(readers[j], i)
			}
			return sums[j]
		})
		if equal(sums[i], next) {
			continue
		}
		sums[i] = next
		for _, r := range readers[i] {
			if !queued[r] {
				queued[r] = true
				work = append(work, r)
			}
		}
	}
	out := make(map[string]S, n)
	for key, i := range m.index {
		out[key] = sums[i]
	}
	return out
}
