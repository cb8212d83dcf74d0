package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// MutexHygiene enforces two lock-discipline rules the storage managers
// depend on:
//
//  1. every path from an x.Lock()/x.RLock() to a return statement in the
//     same function releases the lock, either by a defer or by an explicit
//     unlock on that path; and
//  2. on RWMutex, the release matches the acquisition's flavor: a lock taken
//     with RLock() must be dropped with RUnlock() and one taken with Lock()
//     with Unlock() — crossing them panics ("sync: Unlock of unlocked
//     RWMutex") or silently downgrades exclusion at runtime.
//
// Copying a lock by value is go vet's copylocks check, which CI runs first.
//
// Both rules are a must-held dataflow over the function's CFG (cfg.go),
// solved by the same forward solver as the other flow clients. It is
// intraprocedural and deliberately conservative: a lock is only reported
// at a return if it is held on *every* control-flow path reaching it —
// through branches, loops, break, continue and goto alike — so
// conditional-unlock idioms do not produce false positives.
var MutexHygiene = &Analyzer{
	Name: "mutexhygiene",
	Doc:  "forbid lock acquisitions without an unlock on every return path, and RWMutex releases of the wrong flavor",
	Run:  runMutexHygiene,
}

func runMutexHygiene(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockPaths(p, n.Body)
				}
			case *ast.FuncLit:
				checkLockPaths(p, n.Body)
			}
			return true
		})
	}
}

// --- lock/unlock path analysis ---

const (
	lockNone = iota
	lockAcquire
	lockRelease
)

// lockOp classifies a call as a sync.Mutex/RWMutex acquisition (Lock,
// RLock, TryLock, TryRLock) or release (Unlock, RUnlock). It returns the
// receiver expression, the kind, and whether the call is the read flavor.
func lockOp(info *types.Info, call *ast.CallExpr) (recv ast.Expr, kind int, read bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, lockNone, false
	}
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		kind = lockAcquire
	case "RLock", "TryRLock":
		kind, read = lockAcquire, true
	case "Unlock":
		kind = lockRelease
	case "RUnlock":
		kind, read = lockRelease, true
	default:
		return nil, lockNone, false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, lockNone, false
	}
	if path, name := namedPath(deref(s.Recv())); path != "sync" || (name != "Mutex" && name != "RWMutex") {
		return nil, lockNone, false
	}
	return sel.X, kind, read
}

// heldKey names a held lock by its receiver's source text ("s.mu"), with
// an "/r" suffix for a read lock.
func heldKey(recv ast.Expr, read bool) string {
	if read {
		return types.ExprString(recv) + "/r"
	}
	return types.ExprString(recv)
}

// checkLockPaths applies both rules to one function body: a must-held
// dataflow over its CFG, in which a lock survives a join only if every
// incoming path holds it, then one replay of every reached block that
// reports returns with a lock held and releases of the wrong flavor. A nil
// set marks code no path reaches (after a return or a call that never
// returns): it does not narrow a join and reports nothing.
func checkLockPaths(p *Pass, body *ast.BlockStmt) {
	g := buildCFG(body)
	in := forward(g, map[string]bool{}, func(outs []map[string]bool) map[string]bool {
		var held map[string]bool
		for _, o := range outs {
			if held == nil {
				held = maps.Clone(o)
				continue
			}
			if o != nil {
				maps.DeleteFunc(held, func(k string, _ bool) bool { return !o[k] })
			}
		}
		return held
	}, func(blk *Block, in map[string]bool) map[string]bool {
		return heldAfter(p, blk, in, false)
	}, func(a, b map[string]bool) bool {
		return (a == nil) == (b == nil) && maps.Equal(a, b)
	})
	for _, blk := range g.Blocks {
		heldAfter(p, blk, in[blk.Index], true)
	}
}

// heldAfter carries the must-held set across one block. A deferred unlock,
// or a deferred closure that unlocks, releases the lock for the rest of
// the function.
func heldAfter(p *Pass, blk *Block, in map[string]bool, report bool) map[string]bool {
	if in == nil {
		return nil
	}
	held := maps.Clone(in)
	for _, n := range blk.Nodes {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			switch recv, kind, read := lockOp(p.Info, call); {
			case kind == lockAcquire:
				held[heldKey(recv, read)] = true
			case kind == lockRelease:
				release(p, call.Pos(), held, heldKey(recv, read), report)
			case isTerminalCall(p, call):
				return nil
			}
		case *ast.DeferStmt:
			if recv, kind, read := lockOp(p.Info, n.Call); kind == lockRelease {
				release(p, n.Call.Pos(), held, heldKey(recv, read), report)
			} else if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if recv, kind, read := lockOp(p.Info, call); kind == lockRelease {
							release(p, n.Call.Pos(), held, heldKey(recv, read), report)
						}
					}
					return true
				})
			}
		case *ast.ReturnStmt:
			if report {
				for _, key := range sortedKeys(held) {
					expr, mode := key, "Lock"
					if e, read := strings.CutSuffix(key, "/r"); read {
						expr, mode = e, "RLock"
					}
					p.Reportf(n.Pos(), "return while %s.%s() is still held: no unlock on this path", expr, mode)
				}
			}
			return nil
		}
	}
	return held
}

// release drops key from held. When the matching acquisition is absent but
// the opposite flavor of the same RWMutex is held, the unlock crosses
// flavors — Unlock after RLock or RUnlock after Lock — which is rule 2's
// runtime fault, so it is reported and the mismatched hold cleared to
// avoid a cascading rule-1 report.
func release(p *Pass, pos token.Pos, held map[string]bool, key string, report bool) {
	if expr, read := strings.CutSuffix(key, "/r"); !held[key] {
		if read && held[expr] {
			if report {
				p.Reportf(pos, "%s.RUnlock() releases a write lock acquired with Lock(); use Unlock()", expr)
			}
			delete(held, expr)
		} else if !read && held[key+"/r"] {
			if report {
				p.Reportf(pos, "%s.Unlock() releases a read lock acquired with RLock(); use RUnlock()", key)
			}
			delete(held, key+"/r")
		}
	}
	delete(held, key)
}

// isTerminalCall reports calls that never return: panic, os.Exit,
// log.Fatal*, runtime.Goexit, and testing's t.Fatal/t.Fatalf/t.FailNow/
// t.Skip variants (which stop the goroutine via Goexit).
func isTerminalCall(p *Pass, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := objectOf(p.Info, id); obj != nil && obj.Pkg() == nil && obj.Name() == "panic" {
			return true
		}
		return false
	}
	for pkg, names := range map[string][]string{
		"os":      {"Exit"},
		"log":     {"Fatal", "Fatalf", "Fatalln"},
		"runtime": {"Goexit"},
	} {
		for _, name := range names {
			if pkgFunc(p.Info, call, pkg, name) {
				return true
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if path, _ := namedPath(deref(s.Recv())); path == "testing" {
					return true
				}
			}
		}
	}
	return false
}
