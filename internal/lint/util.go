package lint

import (
	"go/ast"
	"go/types"
)

// pkgFunc reports whether the call expression invokes the package-level
// function pkgPath.name, resolving through the type information (so aliased
// imports and shadowed identifiers are handled correctly).
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// objectOf returns the object an identifier resolves to, from either Uses or
// Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// deref removes one level of pointer indirection.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedPath returns the package path and name of a named type, or "", "".
func namedPath(t types.Type) (pkgPath, name string) {
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return types.Implements(t, errorType)
}
