package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// MutexHygiene enforces three lock-discipline rules the storage managers
// depend on:
//
//  1. no sync.Mutex / sync.RWMutex (or value containing one) is ever copied
//     by value — through a parameter, receiver, result, assignment, or range
//     variable — since a copied lock silently stops excluding anything; and
//  2. every path from an x.Lock()/x.RLock() to a return statement in the
//     same function releases the lock, either by a defer or by an explicit
//     unlock on that path; and
//  3. on RWMutex, the release matches the acquisition's flavor: a lock taken
//     with RLock() must be dropped with RUnlock() and one taken with Lock()
//     with Unlock() — crossing them panics ("sync: Unlock of unlocked
//     RWMutex") or silently downgrades exclusion at runtime.
//
// Rules 2 and 3 are a must-held dataflow over the function's CFG (cfg.go),
// solved by the same forward solver as the other flow clients. It is
// intraprocedural and deliberately conservative: a lock is only reported
// at a return if it is held on *every* control-flow path reaching it —
// through branches, loops, break, continue and goto alike — so
// conditional-unlock idioms do not produce false positives.
var MutexHygiene = &Analyzer{
	Name: "mutexhygiene",
	Doc:  "forbid by-value mutex copies and lock acquisitions without an unlock on every return path",
	Run:  runMutexHygiene,
}

func runMutexHygiene(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkLockCopiesInSignature(p, n.Recv, n.Type)
				if n.Body != nil {
					checkLockPaths(p, n.Body)
				}
			case *ast.FuncLit:
				checkLockCopiesInSignature(p, nil, n.Type)
				checkLockPaths(p, n.Body)
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && !isBlank(n.Lhs[i]) && isLockCopySource(p, rhs) {
						p.Reportf(rhs.Pos(), "assignment copies a value containing a sync mutex; use a pointer")
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if tv, ok := p.Info.Types[n.Value]; ok && tv.Type != nil && containsLock(tv.Type) {
						p.Reportf(n.Value.Pos(), "range value copies a value containing a sync mutex; range over indices or pointers")
					}
				}
			}
			return true
		})
	}
}

// --- copy detection ---

// containsLock reports whether a value of type t embeds a sync.Mutex or
// sync.RWMutex by value (directly, in a struct field, or in an array).
func containsLock(t types.Type) bool {
	if path, name := namedPath(t); path == "sync" && (name == "Mutex" || name == "RWMutex") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem())
	}
	return false
}

func checkLockCopiesInSignature(p *Pass, recv *ast.FieldList, ft *ast.FuncType) {
	report := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := p.Info.Types[field.Type]
			if !ok || tv.Type == nil {
				continue
			}
			if containsLock(tv.Type) {
				p.Reportf(field.Type.Pos(), "%s passes a value containing a sync mutex by value; use a pointer", what)
			}
		}
	}
	report(recv, "receiver")
	report(ft.Params, "parameter")
	report(ft.Results, "result")
}

// isBlank reports whether e is the blank identifier; discarding a value does
// not duplicate live lock state.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isLockCopySource reports whether evaluating rhs copies an existing value
// that contains a mutex. Composite literals and function calls construct
// fresh values and are fine; reading a variable, field, element, or
// dereference duplicates live lock state.
func isLockCopySource(p *Pass, rhs ast.Expr) bool {
	switch rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return false
	}
	tv, ok := p.Info.Types[rhs]
	return ok && tv.Type != nil && containsLock(tv.Type)
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
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
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

// checkLockPaths applies rules 2 and 3 to one function body: a must-held
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
// flavors — Unlock after RLock or RUnlock after Lock — which is rule 3's
// runtime fault, so it is reported and the mismatched hold cleared to
// avoid a cascading rule-2 report.
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
