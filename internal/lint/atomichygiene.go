package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomichygiene enforces all-or-nothing atomic access: a field or package
// variable that is accessed through sync/atomic anywhere in the module must
// be accessed atomically everywhere. A single plain read next to an atomic
// write is a data race the race detector only catches when the schedule
// cooperates; here it is a hard error.
//
// The pass is module-wide: phase 1 inventories every call to a sync/atomic
// package function and records the field (or package variable) behind its
// address argument; phase 2 reports every other mention of those targets —
// plain reads, plain writes, and address-taking aliases all count, because
// each one can tear against the atomic side.
//
// The atomic wrapper types (atomic.Uint64, atomic.Pointer[T], ...) need no
// checking — their plain field accesses only ever reach the value through
// the methods — which is why labbase uses them exclusively. This pass
// exists so the old-style atomic.LoadUint64(&x) discipline stays safe if it
// ever appears: today it is a pure regression gate.
var AtomicHygiene = &Analyzer{
	Name:      "atomichygiene",
	Doc:       "a field accessed through sync/atomic anywhere must be accessed atomically everywhere",
	RunModule: runAtomicHygiene,
}

func runAtomicHygiene(p *ModulePass) {
	// Phase 1: find every sync/atomic call target. sanctioned holds the
	// mentions inside the address argument itself, which are the atomic
	// accesses phase 2 must not flag.
	atomicAt := map[string]token.Pos{}
	sanctioned := map[ast.Node]bool{}
	for _, u := range p.Units {
		for _, f := range u.Files {
			info := u.Info
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 || !atomicPkgCall(info, call) {
					return true
				}
				ast.Inspect(call.Args[0], func(m ast.Node) bool {
					sanctioned[m] = true
					return true
				})
				key := atomicTargetKey(info, call.Args[0])
				if _, seen := atomicAt[key]; key != "" && !seen {
					atomicAt[key] = call.Pos()
				}
				return true
			})
		}
	}
	if len(atomicAt) == 0 {
		return
	}

	// Phase 2: every unsanctioned mention of an atomic target is a mixed
	// access.
	for _, u := range p.Units {
		for _, f := range u.Files {
			info := u.Info
			ast.Inspect(f, func(n ast.Node) bool {
				var key string
				switch n := n.(type) {
				case *ast.SelectorExpr, *ast.Ident:
					if !sanctioned[n] {
						key = slotKey(info, n.(ast.Expr))
					}
				}
				pos, hot := atomicAt[key] // phase 1 records no "" key
				if !hot {
					return true
				}
				p.Reportf(n.Pos(), "non-atomic access to %s, which is accessed with sync/atomic at %s; every access must go through sync/atomic", shortKey(key), posString(p.Fset, pos))
				return true
			})
		}
	}
}

// atomicPkgCall reports whether call invokes a package-level function of
// sync/atomic (LoadUint64, StorePointer, AddInt64, ...).
func atomicPkgCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// atomicTargetKey names the storage behind an atomic call's address
// argument: &x.f -> the field, &arr[i] -> the field holding the array,
// &pkgVar -> the package variable. Locals return "" — an atomic local is
// private to the function and enforceable by eye.
func atomicTargetKey(info *types.Info, arg ast.Expr) string {
	e := unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	for {
		ix, ok := unparen(e).(*ast.IndexExpr)
		if !ok {
			return slotKey(info, e)
		}
		e = ix.X
	}
}
