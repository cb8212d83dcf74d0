package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapshotHygiene enforces the lock-free half of the MVCC read-path
// contract (DESIGN §9): readers run against their capture without taking
// any lock. The analyzer checks every method whose receiver type is a
// snapshot handle — named "Snap" or ending in "Snap", the repository's
// naming convention (labbase.Snap, shard.routerSnap) — and reports any
// sync.Mutex/RWMutex acquisition or release in it (shard.routerSnap's read
// methods are the live router's embedded shard.reads, which this analyzer
// therefore does not see; each shard server answers them from a
// labbase.Snap of its own, which it does check). A snapshot method that
// locks, on db.wmu or any other mutex, reintroduces the reader/writer
// contention the snapshot design removed, and a read path that needs a lock
// is evidence its data is not actually snapshot-reachable.
//
// The other half, that nothing reachable from a published snapshot is
// written, is cowhygiene's: it follows the captured state into every method
// and callee, which a receiver-rooted syntactic check cannot.
//
// Like every analyzer here, a finding can be suppressed with a justified
// directive on or above the offending line:
//
//	//lint:allow snapshothygiene <reason>
var SnapshotHygiene = &Analyzer{
	Name: "snapshothygiene",
	Doc:  "snapshot read methods must be lock-free",
	Run:  runSnapshotHygiene,
}

func runSnapshotHygiene(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isSnapMethod(p.Info, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, kind, _ := lockOp(p.Info, call); kind != lockNone {
						p.Reportf(call.Pos(), "snapshot method %s takes a lock; the snapshot read path must be lock-free", fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}

// isSnapMethod reports whether fd is a method on a snapshot handle type:
// one named "Snap" or "...Snap".
func isSnapMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	_, name := namedPath(deref(t))
	return strings.HasSuffix(name, "Snap")
}
