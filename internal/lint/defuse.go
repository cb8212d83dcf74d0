package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// Reaching definitions over the CFG: the def-use half of the framework.
// A definition is any construct that (re)binds a local variable — short
// declarations, assignments, var specs, ++/--, range bindings, and the
// function's own parameters. defUse answers "which definitions can this
// use of x observe", which is what lets cowhygiene track a tainted
// snapshot pointer through reassignments instead of guessing from types.
//
// Soundness escape: once a variable's address is taken (&x) or it is
// captured by a function literal, any definition of it survives every
// subsequent kill — writes can happen through the pointer or inside the
// closure where this intraprocedural analysis cannot see them. That
// weakens precision (more defs reach) but never hides a def, which is the
// safe direction for every client in this package.

// def is one definition site of one object.
type def struct {
	obj  types.Object
	node ast.Node // AssignStmt, ValueSpec, IncDecStmt, RangeStmt, or Field (param)
}

// defUse holds the reaching-definitions solution for one function body.
type defUse struct {
	reach map[*ast.Ident][]*def
}

// defsOf returns the definitions reaching a use of a local variable, in
// source order. Nil for idents that are not uses of tracked locals.
func (du *defUse) defsOf(use *ast.Ident) []ast.Node {
	defs := du.reach[use]
	nodes := make([]ast.Node, 0, len(defs))
	for _, d := range defs {
		nodes = append(nodes, d.node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
	return nodes
}

// buildDefUse solves reaching definitions for a function body. ftype
// supplies the parameter (and named-result) definitions live at entry; it
// may be nil for synthetic bodies.
func buildDefUse(ftype *ast.FuncType, body *ast.BlockStmt, info *types.Info) *defUse {
	g := buildCFG(body)
	b := &duBuilder{
		info:    info,
		escaped: escapedVars(body, info),
		tracked: map[types.Object]bool{},
		defsAt:  map[ast.Node][]*def{},
	}

	// Entry definitions: parameters and named results.
	entry := map[*def]bool{}
	if ftype != nil {
		fields := []*ast.Field{}
		if ftype.Params != nil {
			fields = append(fields, ftype.Params.List...)
		}
		if ftype.Results != nil {
			fields = append(fields, ftype.Results.List...)
		}
		for _, f := range fields {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					b.tracked[obj] = true
					entry[&def{obj: obj, node: f}] = true
				}
			}
		}
	}
	// Every node's definitions, resolved once so that a def is the same
	// value in every round of the solver and in the replay.
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			b.nodeDefs(n, func(d *def) {
				b.tracked[d.obj] = true
				b.defsAt[n] = append(b.defsAt[n], d)
			})
		}
	}

	// in[b] = ∪ out[pred]; out[b] = in[b] with each node's defs applied.
	in := forward(g, entry, union, func(blk *Block, in map[*def]bool) map[*def]bool {
		cur := maps.Clone(in)
		for _, n := range blk.Nodes {
			b.define(cur, n)
		}
		return cur
	}, maps.Equal)

	// Replay each block from its entry set, snapshotting the live defs at
	// every use.
	du := &defUse{reach: map[*ast.Ident][]*def{}}
	for _, blk := range g.Blocks {
		cur := maps.Clone(in[blk.Index])
		for _, n := range blk.Nodes {
			b.nodeUses(n, func(id *ast.Ident) {
				obj := info.Uses[id]
				if obj == nil || !b.tracked[obj] {
					return
				}
				var live []*def
				for d := range cur {
					if d.obj == obj {
						live = append(live, d)
					}
				}
				sort.Slice(live, func(i, j int) bool { return live[i].node.Pos() < live[j].node.Pos() })
				du.reach[id] = live
			})
			b.define(cur, n)
		}
	}
	return du
}

type duBuilder struct {
	info    *types.Info
	escaped map[types.Object]bool
	tracked map[types.Object]bool // objects with at least one definition
	defsAt  map[ast.Node][]*def   // each CFG node's definitions
}

// define applies node n's definitions to the live set: each kills the
// earlier definitions of its object, unless the object has escaped.
func (b *duBuilder) define(cur map[*def]bool, n ast.Node) {
	for _, d := range b.defsAt[n] {
		if !b.escaped[d.obj] {
			for c := range cur {
				if c.obj == d.obj {
					delete(cur, c)
				}
			}
		}
		cur[d] = true
	}
}

// nodeDefs invokes fn for every definition a flat CFG node performs.
// Function-literal bodies are opaque.
func (b *duBuilder) nodeDefs(n ast.Node, fn func(*def)) {
	emit := func(id *ast.Ident, node ast.Node) {
		obj := b.info.Defs[id]
		if obj == nil {
			obj = b.info.Uses[id]
		}
		if obj == nil {
			return
		}
		fn(&def{obj: obj, node: node})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				emit(id, n)
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if name.Name != "_" {
					emit(name, vs)
				}
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			emit(id, n)
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
				emit(id, n)
			}
		}
	case *ast.TypeSwitchStmt:
		// `switch v := x.(type)` binds v per-clause via Implicits; clients
		// that care resolve those through info.Implicits directly.
	}
}

// nodeUses invokes fn for every identifier the node reads before its own
// definitions take effect, skipping function-literal bodies and the LHS
// idents that are pure (re)definitions.
func (b *duBuilder) nodeUses(n ast.Node, fn func(*ast.Ident)) {
	skip := map[*ast.Ident]bool{}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				skip[id] = true
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				skip[id] = true
			}
		}
	}
	var visit func(ast.Node) bool
	visit = func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			// Flat CFG nodes never own nested bodies; a BlockStmt here means
			// we walked into a statement's sub-body by mistake — don't.
			return false
		case *ast.Ident:
			if !skip[m] {
				fn(m)
			}
		}
		return true
	}
	switch n := n.(type) {
	case *ast.RangeStmt:
		ast.Inspect(n.X, visit)
	case *ast.IncDecStmt:
		ast.Inspect(n.X, visit)
	default:
		ast.Inspect(n, visit)
	}
}

// escapedVars finds local objects whose address is taken or that are
// referenced from a function literal: their definitions are never killed.
func escapedVars(body ast.Node, info *types.Info) map[types.Object]bool {
	escaped := map[types.Object]bool{}
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if obj := objectOf(info, id); obj != nil {
						escaped[obj] = true
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						if _, isVar := obj.(*types.Var); isVar {
							escaped[obj] = true
						}
					}
				}
				return walk(m)
			})
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
	return escaped
}
