package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapshotHygiene enforces the MVCC read-path contract introduced with
// snapshot reads (DESIGN §9): once a snapshot is published, everything
// reachable from it is immutable, and readers run lock-free against their
// capture. The analyzer checks every method whose receiver type is a
// snapshot handle — named "Snap" or ending in "Snap", the repository's
// naming convention (labbase.Snap, shard.shardSnap) — for two violations
// (shard.shardSnap's read methods are the embedded shard.reads, which the
// live stores share and this analyzer therefore does not see; they reach a
// shardSnap's data only through its per-shard labbase.Snap handles, which
// it does check):
//
//  1. taking or releasing any sync.Mutex/RWMutex. The read path must not
//     touch db.wmu (or any other lock): a snapshot method that locks
//     reintroduces the reader/writer contention the snapshot design
//     removed, and a read path that needs a lock is evidence its data is
//     not actually snapshot-reachable.
//
//  2. mutating state reachable from the handle: assigning through a nested
//     selector chain rooted at the receiver (s.st.epoch = ..., s.db.cat =
//     ...), writing an element of a map/slice reached from the receiver
//     (s.st.cat.byState[k] = v), or ++/-- on either. Published snapshot
//     structures are shared with every other reader and with older
//     epochs; the writer path builds replacements and publishes a new
//     snapshot instead of editing in place. Direct fields of the handle
//     itself (s.closed = true) are its private bookkeeping and are
//     allowed.
//
// Like every analyzer here, a finding can be suppressed with a justified
// directive on or above the offending line:
//
//	//lint:allow snapshothygiene <reason>
var SnapshotHygiene = &Analyzer{
	Name: "snapshothygiene",
	Doc:  "snapshot read methods must be lock-free and must not mutate snapshot-reachable state",
	Run:  runSnapshotHygiene,
}

func runSnapshotHygiene(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := snapReceiver(p, fd)
			if recv == nil {
				continue
			}
			checkSnapMethod(p, fd, recv)
		}
	}
}

// snapReceiver returns the receiver object when fd is a method on a
// snapshot handle type (named "Snap" or "...Snap"), else nil.
func snapReceiver(p *Pass, fd *ast.FuncDecl) types.Object {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	field := fd.Recv.List[0]
	tv, ok := p.Info.Types[field.Type]
	if !ok || tv.Type == nil {
		return nil
	}
	_, name := namedPath(deref(tv.Type))
	if name != "Snap" && !strings.HasSuffix(name, "Snap") {
		return nil
	}
	if len(field.Names) != 1 || field.Names[0].Name == "_" {
		return nil // an unnamed receiver cannot root a violation
	}
	return objectOf(p.Info, field.Names[0])
}

func checkSnapMethod(p *Pass, fd *ast.FuncDecl, recv types.Object) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, kind, _ := lockOp(p.Info, n); kind != lockNone {
				p.Reportf(n.Pos(), "snapshot method %s takes a lock; the snapshot read path must be lock-free", fd.Name.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if reason := snapMutation(p, lhs, recv); reason != "" {
					p.Reportf(lhs.Pos(), "snapshot method %s %s; published snapshot state is immutable", fd.Name.Name, reason)
				}
			}
		case *ast.IncDecStmt:
			if reason := snapMutation(p, n.X, recv); reason != "" {
				p.Reportf(n.X.Pos(), "snapshot method %s %s; published snapshot state is immutable", fd.Name.Name, reason)
			}
		}
		return true
	})
}

// snapMutation classifies an assignment target: it returns a description
// when lhs writes into state reachable from the snapshot receiver, and ""
// for safe targets (locals, blanks, the handle's own direct fields).
func snapMutation(p *Pass, lhs ast.Expr, recv types.Object) string {
	switch e := lhs.(type) {
	case *ast.IndexExpr:
		// Any element write whose container is reached from the receiver:
		// s.m[k] = v, s.st.cat.byState[k] = v, ...
		if rootedAt(p, e.X, recv) {
			return "writes an element of snapshot-reachable state (" + types.ExprString(e) + ")"
		}
	case *ast.SelectorExpr:
		// A field write through a chain of length >= 2: s.st.epoch = ...,
		// s.db.cat = ... . Length-1 chains (s.closed = ...) are the
		// handle's own fields.
		if inner, ok := unparen(e.X).(*ast.SelectorExpr); ok && rootedAt(p, inner, recv) {
			return "assigns through snapshot-reachable state (" + types.ExprString(e) + ")"
		}
		if star, ok := unparen(e.X).(*ast.StarExpr); ok && rootedAt(p, star.X, recv) {
			return "assigns through snapshot-reachable state (" + types.ExprString(e) + ")"
		}
	case *ast.StarExpr:
		// *s.ptr = v overwrites shared state through a pointer.
		if rootedAt(p, e.X, recv) {
			return "assigns through snapshot-reachable state (" + types.ExprString(e) + ")"
		}
	}
	return ""
}

// rootedAt reports whether expr is a selector/index/deref chain whose root
// identifier resolves to recv.
func rootedAt(p *Pass, expr ast.Expr, recv types.Object) bool {
	for {
		switch e := unparen(expr).(type) {
		case *ast.Ident:
			return objectOf(p.Info, e) == recv
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
