package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// cowhygiene enforces the copy-on-write contract behind DB's lock-free read
// path (DESIGN §6): every value reachable from a published snapshot — a
// *dbState loaded through the atomic state pointer, the treap nodes and
// inversion lists hanging off it, and anything a blessed accessor returns
// from one — is immutable. The writer may *replace* a field that feeds the
// next publish (`db.nameRoot = treapPut(...)`), but may never write
// *through* a published value (`st.nameRoot.left = ...`), pass one to a
// callee that mutates its parameter, or call a mutating method on one.
//
// The pass is module-wide and runs in three phases, the first two as
// clients of the summary solver (summary.go):
//
//  1. Mutation summaries: for every body in the module, which parameters
//     (and the receiver) it writes through, propagated through resolved
//     calls — static callees, and function values whose every assignment
//     is visible. Opaque callees — interface dispatch, calls through a
//     parameter, the standard library — are assumed non-mutating, which is
//     the documented under-approximation that keeps the treap value-copy
//     idiom (`c := *n; treapRotateRight(&c)`) legal.
//  2. Taint facts: which bodies return snapshot-reachable pointers and
//     which struct fields hold them, seeded by `(atomic.Pointer[T]).Load`
//     for published T. A field's taint is read from the bodies that
//     mention it, so learning one requeues just those. Building a
//     published-type composite literal marks the source fields it
//     captures (publish() aliasing `db.nameRoot` into the next dbState),
//     while fields wrapped in `append(nil, ...)` stay clean — the copy
//     breaks the alias.
//  3. Violation scan: per function body (closures analyzed as their own
//     contexts), using reaching definitions to track taint through local
//     reassignment. Value copies cleanse: assigning a non-pointer-shaped
//     value (`c := *n`) produces a fresh object the writer may mutate.
var CowHygiene = &Analyzer{
	Name:      "cowhygiene",
	Doc:       "values reachable from a published MVCC snapshot must never be mutated",
	RunModule: runCowHygiene,
}

// cowPublishedTypes names the types whose instances are published by the
// snapshot machinery, keyed by bare type name so fixtures exercise the same
// code paths as labbase itself.
var cowPublishedTypes = map[string]bool{
	"dbState":   true,
	"treapNode": true,
	"invList":   true,
}

// The taint facts a body contributes in phase 2, by kind and key.
const (
	nsCowReturns = "cow.returns"   // the body returns a tainted pointer
	nsCowField   = "cow.field\x00" // + fieldKey/pkgVarKey: holds a tainted pointer
	nsCowElems   = "cow.elems\x00" // + fieldKey: slice header fresh, elements shared
)

// cowMutFact summarizes which inputs a function writes through.
type cowMutFact struct {
	Recv   bool
	Params []bool
}

// cowState is what every body's flow context shares: the call graph, the
// mutation summaries, and which bodies mention each field or package
// variable — the only bodies that can taint it.
type cowState struct {
	p        *ModulePass
	mod      *module
	muts     map[string]cowMutFact
	mentions map[string][]string
	duCache  map[*ast.BlockStmt]*defUse
}

func runCowHygiene(p *ModulePass) {
	cs := &cowState{p: p, mod: p.module, mentions: map[string][]string{}, duCache: map[*ast.BlockStmt]*defUse{}}

	// Phase 1: mutation summaries.
	cs.muts = solve(cs.mod, func(fn *fnBody, summary func(string) cowMutFact) cowMutFact {
		return cowMutSummary(fn, cs.mod, summary)
	}, sameMutFact)

	// Phase 2: taint facts (returns and field stores). A body reads a
	// field's taint from every body that mentions the field, so a body
	// that learns one requeues exactly the bodies that may read it.
	for _, fn := range cs.mod.bodies {
		cs.indexMentions(fn)
	}
	taint := solve(cs.mod, func(fn *fnBody, summary func(string) map[string]bool) map[string]bool {
		return cs.ctx(fn, summary).harvest()
	}, maps.Equal)

	// Phase 3: report violations.
	for _, fn := range cs.mod.bodies {
		cs.ctx(fn, func(key string) map[string]bool { return taint[key] }).scan()
	}
}

// indexMentions records fn under every field and package variable its own
// body (closures excluded) names, composite-literal fields included.
func (cs *cowState) indexMentions(fn *fnBody) {
	info := fn.unit.Info
	seen := map[string]bool{}
	mention := func(key string) {
		if key != "" && !seen[key] {
			seen[key] = true
			cs.mentions[key] = append(cs.mentions[key], fn.key)
		}
	}
	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			mention(slotKey(info, n))
		case *ast.SelectorExpr:
			mention(slotKey(info, n))
		case *ast.CompositeLit:
			structFields(info, n, func(owner *types.Named, field *types.Var, _ ast.Expr) {
				mention(namedKeyOf(owner) + "." + field.Name())
			})
		}
		return true
	})
}

func sameMutFact(a, b cowMutFact) bool {
	return a.Recv == b.Recv && slices.Equal(a.Params, b.Params)
}

// --- phase 1: mutation summaries ---------------------------------------------

// cowMutSummary computes which of fn's inputs the body writes through:
// directly (assignment/++/--/delete on a chain rooted at the parameter, at
// depth >= 1 — rebinding the parameter itself is not mutation), or
// indirectly by forwarding the bare parameter to a callee already known to
// mutate. Bare-copy aliases (`q := p`, `for _, q := range p`) count as the
// parameter. Closure bodies are included: a literal that mutates a captured
// parameter makes the enclosing function mutating.
func cowMutSummary(fn *fnBody, mod *module, summary func(string) cowMutFact) cowMutFact {
	info := fn.unit.Info
	// Input objects: receiver is index -1, parameters are 0..n-1.
	inputs := map[types.Object]int{}
	nparams := 0
	for _, f := range fn.ftype.Params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				inputs[obj] = nparams
			}
			nparams++
		}
		if len(f.Names) == 0 {
			nparams++
		}
	}
	if fn.recv != nil {
		for _, name := range fn.recv.List[0].Names {
			if obj := info.Defs[name]; obj != nil {
				inputs[obj] = -1
			}
		}
	}
	fact := cowMutFact{Params: make([]bool, nparams)}
	mark := func(idx int) {
		if idx == -1 {
			fact.Recv = true
		} else if idx >= 0 && idx < nparams {
			fact.Params[idx] = true
		}
	}

	// Flow-insensitive alias growth: q := p makes q stand for p everywhere.
	for grown := true; grown; {
		grown = false
		alias := func(dst, src ast.Expr) {
			srcID, ok := ast.Unparen(src).(*ast.Ident)
			if !ok {
				return
			}
			idx, aliased := inputs[objectOf(info, srcID)]
			if dstID, ok := ast.Unparen(dst).(*ast.Ident); ok && aliased && dstID.Name != "_" {
				if obj := objectOf(info, dstID); obj != nil {
					if _, seen := inputs[obj]; !seen {
						inputs[obj], grown = idx, true
					}
				}
			}
		}
		ast.Inspect(fn.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Rhs {
						alias(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					alias(n.Value, n.X)
				}
			}
			return true
		})
	}

	rootInput := func(e ast.Expr) (int, bool) {
		depth := 0
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e, depth = x.X, depth+1
			case *ast.IndexExpr:
				e, depth = x.X, depth+1
			case *ast.StarExpr:
				e, depth = x.X, depth+1
			case *ast.Ident:
				if depth == 0 {
					return 0, false // rebinding, not mutation
				}
				idx, ok := inputs[objectOf(info, x)]
				return idx, ok
			default:
				return 0, false
			}
		}
	}

	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := rootInput(lhs); ok {
					mark(idx)
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := rootInput(n.X); ok {
				mark(idx)
			}
		case *ast.CallExpr:
			// delete(p, k), and forwarding a bare input to a mutating callee.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := objectOf(info, id).(*types.Builtin); isBuiltin {
					if src, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if idx, aliased := inputs[objectOf(info, src)]; aliased {
							mark(idx)
						}
					}
				}
			}
			for _, key := range mod.callees(info, n) {
				forwardMutation(info, n, summary(key), inputs, mark)
			}
		}
		return true
	})
	return fact
}

// forwardMutation marks the inputs a call hands bare to a callee that
// mutates the matching receiver or parameter.
func forwardMutation(info *types.Info, call *ast.CallExpr, callee cowMutFact, inputs map[types.Object]int, mark func(int)) {
	if callee.Recv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if idx, aliased := inputs[objectOf(info, id)]; aliased {
					mark(idx)
				}
			}
		}
	}
	for i, arg := range call.Args {
		arg = ast.Unparen(arg)
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			continue // &p mutates the pointee of a fresh pointer, not p's referent
		}
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		idx, aliased := inputs[objectOf(info, id)]
		if !aliased {
			continue
		}
		if callee.mutatesArg(i) {
			mark(idx)
		}
	}
}

// mutatesArg reports whether the callee writes through its i'th argument,
// the variadic tail included.
func (f cowMutFact) mutatesArg(i int) bool {
	if i >= len(f.Params) {
		i = len(f.Params) - 1
	}
	return i >= 0 && f.Params[i]
}

// --- phases 2 and 3: taint and violations ------------------------------------

// cowCtx is the flow context for one function body: its reaching-defs
// solution plus memoized taint verdicts against the current taint facts.
type cowCtx struct {
	*cowState
	fn      *fnBody
	info    *types.Info
	du      *defUse
	summary func(key string) map[string]bool // a body's taint facts

	defTaint map[cowDefKey]bool // a verdict, false while in progress
}

type cowDefKey struct {
	obj  types.Object
	node ast.Node
}

func (cs *cowState) ctx(fn *fnBody, summary func(string) map[string]bool) *cowCtx {
	du, ok := cs.duCache[fn.body]
	if !ok {
		du = buildDefUse(fn.ftype, fn.body, fn.unit.Info)
		cs.duCache[fn.body] = du
	}
	return &cowCtx{cowState: cs, fn: fn, info: fn.unit.Info, du: du, summary: summary, defTaint: map[cowDefKey]bool{}}
}

// hot reports whether some body has learned that the field or package
// variable key holds a tainted pointer (ns nsCowField) or shares its
// elements with a snapshot (ns nsCowElems).
func (c *cowCtx) hot(ns, key string) bool {
	for _, body := range c.mentions[key] {
		if c.summary(body)[ns+key] {
			return true
		}
	}
	return false
}

// elemsHot reports whether e names a field whose slice header is fresh but
// whose elements are shared with a published snapshot — the result of the
// publish() idiom `append([]T(nil), db.stateRoots...)`, which copies the
// slice of pointers but not the nodes behind them. Replacing a slot is
// legal; mutating through a slot is not.
func (c *cowCtx) elemsHot(e ast.Expr) bool { return c.hot(nsCowElems, slotKey(c.info, e)) }

// pointerLike reports whether values of t share their referent when copied:
// mutating through the copy mutates the original. Plain structs, arrays,
// and scalars copy by value, which is what makes `c := *n` a cleanse.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// cowSnapshotLoad reports whether call is (atomic.Pointer[T]).Load for a
// published T: the taint source.
func cowSnapshotLoad(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	elem := atomicPointerElem(deref(s.Recv()))
	return elem != nil && cowPublishedTypes[elem.Obj().Name()]
}

// atomicPointerElem returns T when t is atomic.Pointer[T] for a named T,
// else nil.
func atomicPointerElem(t types.Type) *types.Named {
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if path, name := namedPath(n.Origin()); path != "sync/atomic" || name != "Pointer" {
		return nil
	}
	args := n.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	elem, _ := deref(args.At(0)).(*types.Named)
	if elem == nil {
		return nil
	}
	return elem.Origin()
}

// tainted reports whether e evaluates to a value reachable from a published
// snapshot. Local variables consult reaching definitions; value-shaped
// results (non-pointer-like) are always clean.
func (c *cowCtx) tainted(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := objectOf(c.info, e)
		v, ok := obj.(*types.Var)
		if !ok || !pointerLike(v.Type()) {
			return false
		}
		if key := pkgVarKey(v); key != "" {
			return c.hot(nsCowField, key)
		}
		for _, dn := range c.du.defsOf(e) {
			if c.defTainted(obj, dn) {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		if s, ok := c.info.Selections[e]; ok && s.Kind() == types.FieldVal {
			if c.hot(nsCowField, fieldKeyOf(s)) {
				return true
			}
			return c.tainted(e.X) && pointerLike(c.info.TypeOf(e))
		}
		return c.hot(nsCowField, slotKey(c.info, e)) && pointerLike(c.info.TypeOf(e))
	case *ast.IndexExpr:
		return (c.tainted(e.X) || c.elemsHot(e.X)) && pointerLike(c.info.TypeOf(e))
	case *ast.StarExpr:
		return c.tainted(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && c.tainted(e.X)
	case *ast.TypeAssertExpr:
		return e.Type != nil && c.tainted(e.X) && pointerLike(c.info.TypeOf(e))
	case *ast.CallExpr:
		return c.callTainted(e)
	}
	return false
}

// callTainted reports whether a call's result is tainted: the atomic Load
// source itself, append/conversions of a tainted operand, or a callee known
// to return snapshot-reachable pointers.
func (c *cowCtx) callTainted(call *ast.CallExpr) bool {
	if cowSnapshotLoad(c.info, call) {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := objectOf(c.info, id).(*types.Builtin); isBuiltin {
			// append(nil, tainted...) copies into arg0: taint follows the
			// destination, so append([]T(nil), st.roots...) is a cleanse.
			return id.Name == "append" && len(call.Args) > 0 && c.tainted(call.Args[0])
		}
	}
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.tainted(call.Args[0]) // conversion preserves the referent
	}
	for _, key := range c.mod.callees(c.info, call) {
		if c.summary(key)[nsCowReturns] {
			return true
		}
	}
	return false
}

// defTainted evaluates one reaching definition of obj. The in-progress
// state breaks def cycles (`n = n.left` in a loop): the cyclic def itself
// contributes nothing, and taint still arrives through the loop-entry def.
func (c *cowCtx) defTainted(obj types.Object, node ast.Node) bool {
	k := cowDefKey{obj: obj, node: node}
	if v, ok := c.defTaint[k]; ok {
		return v
	}
	c.defTaint[k] = false
	v := c.defTaintedEval(obj, node)
	c.defTaint[k] = v
	return v
}

func (c *cowCtx) defTaintedEval(obj types.Object, node ast.Node) bool {
	tupleTaint := func(rhs ast.Expr) bool {
		switch r := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			return c.callTainted(r)
		case *ast.TypeAssertExpr:
			return c.tainted(r.X)
		case *ast.IndexExpr:
			return c.tainted(r.X)
		case *ast.UnaryExpr:
			return c.tainted(r.X) // <-ch
		}
		return false
	}
	// pick evaluates the value bound to the one of n names that is obj.
	pick := func(n int, isObj func(i int) bool, values []ast.Expr) bool {
		for i := 0; i < n; i++ {
			if isObj(i) && len(values) == n {
				return c.tainted(values[i])
			} else if isObj(i) {
				return len(values) > 0 && tupleTaint(values[0])
			}
		}
		return false
	}
	switch n := node.(type) {
	case *ast.AssignStmt:
		return pick(len(n.Lhs), func(i int) bool {
			id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
			return ok && objectOf(c.info, id) == obj
		}, n.Rhs)
	case *ast.ValueSpec:
		return pick(len(n.Names), func(i int) bool { return c.info.Defs[n.Names[i]] == obj }, n.Values)
	case *ast.RangeStmt:
		return c.tainted(n.X) || c.elemsHot(n.X)
	}
	// IncDecStmt and parameter Fields never introduce taint.
	return false
}

// harvest returns this body's contribution to the taint facts: whether it
// returns a tainted pointer, the fields (and package variables) it stores
// them in, and the source fields captured by a published-type composite
// literal.
func (c *cowCtx) harvest() map[string]bool {
	facts := map[string]bool{}
	put := func(ns, key string) {
		if key != "" {
			facts[ns+key] = true
		}
	}
	ast.Inspect(c.fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // harvested as its own context
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if pointerLike(c.info.TypeOf(r)) && c.tainted(r) {
					facts[nsCowReturns] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				hot := false
				if len(n.Rhs) == len(n.Lhs) {
					hot = pointerLike(c.info.TypeOf(n.Rhs[i])) && c.tainted(n.Rhs[i])
				} else if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					hot = c.callTainted(call)
				}
				if hot {
					put(nsCowField, slotKey(c.info, lhs))
				}
			}
		case *ast.CompositeLit:
			c.harvestComposite(n, put)
		}
		return true
	})
	return facts
}

// harvestComposite handles struct literals: storing a tainted value in a
// field taints the field everywhere, and building a *published* type's
// literal additionally marks the source fields it aliases — that is how
// publish() turns `nameRoot: db.nameRoot` into "db.nameRoot is now shared
// with readers". Elements wrapped in append(nil, ...) or clone calls never
// reach here as bare selectors, so copied fields stay writable.
func (c *cowCtx) harvestComposite(lit *ast.CompositeLit, put func(ns, key string)) {
	structFields(c.info, lit, func(owner *types.Named, field *types.Var, value ast.Expr) {
		if !pointerLike(c.info.TypeOf(value)) {
			return
		}
		if c.tainted(value) {
			put(nsCowField, namedKeyOf(owner)+"."+field.Name())
		}
		if cowPublishedTypes[owner.Origin().Obj().Name()] {
			if sel, ok := ast.Unparen(value).(*ast.SelectorExpr); ok {
				if s, ok := c.info.Selections[sel]; ok {
					put(nsCowField, fieldKeyOf(s))
				}
			}
			// append(nil, db.field...) copies the slice header but shares the
			// elements: the source field's slots stay writable, their
			// referents do not.
			if call, ok := ast.Unparen(value).(*ast.CallExpr); ok && call.Ellipsis.IsValid() {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := objectOf(c.info, id).(*types.Builtin); isBuiltin {
						for _, a := range call.Args[1:] {
							if sel, ok := ast.Unparen(a).(*ast.SelectorExpr); ok {
								if s, ok := c.info.Selections[sel]; ok {
									put(nsCowElems, fieldKeyOf(s))
								}
							}
						}
					}
				}
			}
		}
	})
}

// scan reports every mutation of a tainted value in this body.
func (c *cowCtx) scan() {
	ast.Inspect(c.fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // scanned as its own context
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X)
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// baseTainted reports whether writing through e lands in snapshot-published
// memory: e itself is tainted, or e is a projection (field/index/deref)
// whose base is. Projections through a clean value copy stop the walk —
// that is the cleanse the copy constructors rely on.
func (c *cowCtx) baseTainted(e ast.Expr) bool {
	e = ast.Unparen(e)
	if c.tainted(e) {
		return true
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := c.info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return c.baseTainted(e.X)
		}
	case *ast.IndexExpr:
		return c.baseTainted(e.X)
	case *ast.StarExpr:
		return c.baseTainted(e.X)
	}
	return false
}

func (c *cowCtx) checkWrite(lhs ast.Expr) {
	var base ast.Expr
	verb := "write to"
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if s, ok := c.info.Selections[lhs]; ok && s.Kind() == types.FieldVal {
			base = lhs.X
		}
	case *ast.IndexExpr:
		base = lhs.X
	case *ast.StarExpr:
		base, verb = lhs.X, "write through"
	}
	if base != nil && c.baseTainted(base) {
		c.p.Reportf(lhs.Pos(), "%s %s mutates snapshot-published state; clone before mutating (DESIGN §6)", verb, types.ExprString(lhs))
	}
}

func (c *cowCtx) checkCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := objectOf(c.info, id).(*types.Builtin); isBuiltin {
			if id.Name == "delete" && len(call.Args) > 0 && c.tainted(call.Args[0]) {
				c.p.Reportf(call.Pos(), "delete on snapshot-published map %s; clone before mutating (DESIGN §6)", types.ExprString(call.Args[0]))
			}
			return
		}
	}
	for _, key := range c.mod.callees(c.info, call) {
		c.checkMutatingCall(call, key, c.muts[key])
	}
}

// checkMutatingCall reports the snapshot-published inputs a call hands to
// the callee key, which mutates the inputs fact marks.
func (c *cowCtx) checkMutatingCall(call *ast.CallExpr, key string, fact cowMutFact) {
	if fact.Recv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.tainted(sel.X) {
			c.p.Reportf(call.Pos(), "%s mutates its receiver, which is snapshot-published here; clone before mutating (DESIGN §6)", shortKey(key))
		}
	}
	for i, arg := range call.Args {
		if fact.mutatesArg(i) && c.tainted(arg) {
			c.p.Reportf(arg.Pos(), "passing snapshot-published %s to %s, which mutates that parameter; clone first (DESIGN §6)", types.ExprString(arg), shortKey(key))
		}
	}
}
