package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Stable, position-independent names for functions, fields and package
// variables: the keys of the module's call graph (summary.go) and of the
// lock classes.
//
// Why string keys and not types.Object identity: the loader type-checks a
// package twice when it has in-package tests (once as a dependency, once
// augmented with its _test files), and those two checks mint distinct
// objects for the same source. Names of the form "pkgpath.Type.member"
// (or "pkgpath.name" at package level) are identical across both checks,
// so a summary recorded from one view is visible from every other.

// --- stable object keys ------------------------------------------------------

// funcKey names a function or method position-independently:
// "pkg/path.Name" for package functions, "pkg/path.Recv.Name" for methods
// (generic receivers collapse to their origin, so every instantiation of
// oidCache[V].get shares one key). "" when the object is unusable (builtins,
// error.Error, objects without a package).
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		n, ok := deref(recv.Type()).(*types.Named)
		if !ok {
			return "" // interface method or weird receiver: not a static target
		}
		return namedKeyOf(n) + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// namedKeyOf names a (possibly instantiated) named type by its origin:
// "pkg/path.Name".
func namedKeyOf(n *types.Named) string {
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// fieldKeyOf names a struct field as "pkg/path.Owner.field", resolving the
// owner through the selection's receiver type (so promoted fields key on
// the struct that actually declares them when reachable, and otherwise on
// the receiver the source wrote). "" when the selection is not a field.
func fieldKeyOf(sel *types.Selection) string {
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	obj, ok := sel.Obj().(*types.Var)
	if !ok {
		return ""
	}
	// Walk the selection's receiver to the named struct holding the field.
	t := sel.Recv()
	for _, idx := range sel.Index()[:len(sel.Index())-1] {
		s, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		t = s.Field(idx).Type()
	}
	n, ok := deref(t).(*types.Named)
	if !ok {
		return ""
	}
	return namedKeyOf(n) + "." + obj.Name()
}

// pkgVarKey names a package-level variable "pkg/path.name", or "".
func pkgVarKey(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return v.Pkg().Path() + "." + v.Name()
}

// slotKey names the field or package variable e denotes, "" for anything
// else.
func slotKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkgVarKey(info.Uses[e])
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return fieldKeyOf(sel)
		}
		return pkgVarKey(info.Uses[e.Sel])
	}
	return ""
}

// structFields calls fn with a struct composite literal's named type and
// each element's field and value; other literals call nothing.
func structFields(info *types.Info, lit *ast.CompositeLit, fn func(owner *types.Named, field *types.Var, value ast.Expr)) {
	owner, _ := deref(info.TypeOf(lit)).(*types.Named)
	if owner == nil {
		return
	}
	st, ok := owner.Underlying().(*types.Struct)
	for i, elt := range lit.Elts {
		if kv, isKV := elt.(*ast.KeyValueExpr); ok && isKV {
			if field, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
				fn(owner, field, kv.Value)
			}
		} else if ok && i < st.NumFields() {
			fn(owner, st.Field(i), elt)
		}
	}
}

// staticCalleeKey resolves a call expression to the funcKey of its static
// target: a package function, a method on a concrete named type, or a
// qualified identifier. Calls through interfaces, function values, and
// builtins return "". It is the static half of module.callees.
func staticCalleeKey(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := objectOf(info, fun).(*types.Func); ok {
			return funcKey(fn)
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if s.Kind() != types.MethodVal {
				return ""
			}
			return methodKey(s)
		}
		// Package-qualified call: fmt.Errorf, atomic.AddUint64, ...
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return funcKey(fn)
		}
	}
	return ""
}

// methodKey is the funcKey of a method value or expression's concrete
// target, "" for interface methods (dynamic dispatch).
func methodKey(s *types.Selection) string {
	if _, isIface := deref(s.Recv()).Underlying().(*types.Interface); isIface {
		return ""
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return ""
	}
	if key := funcKey(fn); key != "" {
		return key
	}
	// Methods on instantiated generics have no origin receiver in the
	// signature; rebuild the key from the selection receiver.
	if n, ok := deref(s.Recv()).(*types.Named); ok {
		return namedKeyOf(n) + "." + fn.Name()
	}
	return ""
}

// shortKey trims the module path prefix off a fact key for diagnostics:
// "labflow/internal/labbase.DB.wmu" reads as "labbase.DB.wmu".
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
