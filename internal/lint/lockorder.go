package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// lockorder enforces the DESIGN §6.3 mutex hierarchy across the module. Every
// acquisition site is analyzed with the set of lock *classes* that may
// already be held — a class is the field that declares the mutex
// ("labbase.DB.wmu"), so every instance of a sharded lock shares one node —
// and three rules are checked:
//
//  1. Ranked classes must be acquired in ascending rank order. The ranks
//     encode the documented hierarchy:
//     wire.Server.mu(10) < wire.connCore.connMu(20) < shard.core.stmu(30) <
//     shard.pool.mu(34) < labbase.DB.wmu(50) < the leaves(60).
//     connCore.connMu is the one connection-registry lock, a primary's and
//     a standby's alike. The shard core's catalog-and-bracket lock sits
//     above whatever its members take: the router checks out pooled
//     connections under it (stmu -> pool.mu). On the far end of a pooled
//     connection a wire.Server drives a shard's labbase.DB — in another
//     process, or in this one behind shard.Open's in-memory network — on
//     the server's own goroutines, so no held-lock edge crosses the wire:
//     the router waits for a reply holding stmu, and a shard server never
//     waits on a router. The core reaches its members through an
//     interface, which this analysis cannot see through; the edges it does
//     check are the ones inside the router.
//  2. Leaf classes (RemoteShipper.mu, verTable.mu, readerSlots.mu,
//     routerMetrics.mu) may acquire nothing at all while held — that is
//     what makes them safe to take from both the read and write paths
//     (DESIGN §9).
//  3. The module-wide acquisition graph, including unranked storage-manager
//     mutexes, must be acyclic. Storage locks are deliberately unranked:
//     they sit below everything and only a genuine cycle among them is a
//     bug.
//
// May-held analysis: branches union, so a lock held on either arm counts.
// Deferred unlocks do not release for the remainder of the function — the
// lock really is held at every later statement — while explicit unlocks
// release immediately. A call contributes the transitive acquisition
// summary (summary.go's solver) of every body the call-edge function
// resolves it to: a static callee, or each value a function-typed field or
// variable can hold when all of them are visible — which is how the wire
// op table's handlers are charged to the dispatcher that runs them. A
// function-literal argument is charged at the call site, which is how
// `broadcast(db, fn)` attributes fn's locks; a literal reached through a
// field or variable is named in reports by where it is written. Interface
// calls and calls through a parameter stay opaque, and `go` statements
// start an empty-held analysis root of their own: a spawned goroutine
// inherits no lock.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutex acquisition must follow the DESIGN §6.3 hierarchy and stay acyclic",
	RunModule: runLockOrder,
}

// lockRanks is the encoded DESIGN §6.3 hierarchy. A lock may only be acquired
// while every held ranked lock has a strictly smaller rank. Equal-rank
// classes (the leaves) are mutually unordered and guarded by lockLeaves
// instead. The fixture mirrors exercise the same table from testdata.
var lockRanks = map[string]int{
	"labflow/internal/wire.Server.mu":          10,
	"labflow/internal/wire.connCore.connMu":    20,
	"labflow/internal/labbase/shard.core.stmu": 30,
	"labflow/internal/labbase/shard.pool.mu":   34,
	"labflow/internal/labbase.DB.wmu":          50,
	// RemoteShipper.mu is acquired at commit time with the store's writer
	// side held (the shipper runs inside Commit); it holds network I/O but
	// never another lock, so it ranks above every writer lock and is a
	// leaf. repl.Standby.mu ranks just under the leaves: Apply acquires
	// the standby's pagefile mutexes (unranked, cycle-checked) while held.
	"labflow/internal/wire.RemoteShipper.mu":          55,
	"labflow/internal/storage/repl.Standby.mu":        58,
	"labflow/internal/labbase.verTable.mu":            60,
	"labflow/internal/labbase.readerSlots.mu":         60,
	"labflow/internal/labbase/shard.routerMetrics.mu": 60,

	"fixture/lockorder.Server.mu":     10,
	"fixture/lockorder.Server.connMu": 20,
	"fixture/lockorder.Core.stmu":     30,
	"fixture/lockorder.Pool.mu":       34,
	"fixture/lockorder.Local.wmu":     40,
	"fixture/lockorder.Shipper.mu":    55,
	"fixture/lockorder.Standby.mu":    58,
	"fixture/lockorder.Cache.mu":      60,
	"fixture/lockorder.Metrics.mu":    60,
}

// lockLeaves are the classes that may acquire nothing while held.
var lockLeaves = map[string]bool{
	"labflow/internal/wire.RemoteShipper.mu":          true,
	"labflow/internal/labbase.verTable.mu":            true,
	"labflow/internal/labbase.readerSlots.mu":         true,
	"labflow/internal/labbase/shard.routerMetrics.mu": true,
	"fixture/lockorder.Shipper.mu":                    true,
	"fixture/lockorder.Cache.mu":                      true,
	"fixture/lockorder.Metrics.mu":                    true,
}

// lockClassKey names the lock class behind a mutex receiver expression: the
// declaring field for struct-held mutexes (array/slice elements collapse to
// the field, so every wmu[k] is one class), the package variable for
// globals, "" for locals and unresolvable receivers.
func lockClassKey(info *types.Info, e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return slotKey(info, x)
		}
	}
}

// lockEdge is the first-encountered witness for "to may be acquired while
// from is held".
type lockEdge struct {
	pos token.Pos
	via string // funcKey of the call carrying the acquisition; "" if direct
}

type lockState struct {
	p        *ModulePass
	mod      *module
	acquires map[string]map[string]bool // body key -> classes it may acquire, transitively
	edges    map[string]map[string]lockEdge
	reported map[string]bool
}

func runLockOrder(p *ModulePass) {
	st := &lockState{
		p:        p,
		mod:      p.module,
		edges:    map[string]map[string]lockEdge{},
		reported: map[string]bool{},
	}

	// Phase 1: transitive acquisition summaries per body. A body's summary
	// takes in its function literals (they may run downstream of any call)
	// but not its go statements (their goroutine inherits no lock).
	st.acquires = solve(st.mod, func(b *fnBody, summary func(string) map[string]bool) map[string]bool {
		info := b.unit.Info
		sum := map[string]bool{}
		ast.Inspect(b.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if recv, kind, _ := lockOp(info, n); kind == lockAcquire {
					if key := lockClassKey(info, recv); key != "" {
						sum[key] = true
					}
				} else if kind == lockNone {
					for _, callee := range st.mod.callees(info, n) {
						maps.Copy(sum, summary(callee))
					}
				}
			}
			return true
		})
		return sum
	}, maps.Equal)

	// Phase 2: may-held dataflow per root — every declared function, and
	// the body of every go-statement literal, which starts with nothing
	// held — whose replay records edges and reports direct violations.
	for _, b := range st.mod.bodies {
		if !b.lit || b.spawned {
			st.walkRoot(b.unit.Info, b.body)
		}
	}

	// Phase 3: the acquisition graph must be acyclic — this is the only
	// check that covers the unranked storage-manager classes.
	st.reportCycles()
}

// sortedKeys lists a string-keyed map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// walkRoot solves the union-merge held-set dataflow over one body's CFG,
// then replays it once with reporting on.
func (st *lockState) walkRoot(info *types.Info, body *ast.BlockStmt) {
	g := buildCFG(body)
	flow := func(blk *Block, in map[string]bool, report bool) map[string]bool {
		held := maps.Clone(in)
		for _, n := range blk.Nodes {
			st.flowNode(info, n, held, report)
		}
		return held
	}
	in := forward(g, map[string]bool{}, union, func(blk *Block, in map[string]bool) map[string]bool {
		return flow(blk, in, false)
	}, maps.Equal)
	for _, blk := range g.Blocks {
		flow(blk, in[blk.Index], true)
	}
}

// flowNode advances the held set across one flat CFG node, recording edges
// and (when report is set) violations at each acquisition.
func (st *lockState) flowNode(info *types.Info, n ast.Node, held map[string]bool, report bool) {
	var deferredCall *ast.CallExpr
	if d, ok := n.(*ast.DeferStmt); ok {
		// A deferred call runs at exit with at least the never-released
		// locks held; processing it here with the current held set is the
		// conservative approximation. A deferred Unlock does NOT release:
		// the lock stays held for everything after this statement.
		deferredCall = d.Call
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // its body is summarized at call sites and walked as a root when spawned
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			st.flowCall(info, m, held, m == deferredCall, report)
		}
		return true
	})
}

func (st *lockState) flowCall(info *types.Info, call *ast.CallExpr, held map[string]bool, deferred bool, report bool) {
	if recv, kind, _ := lockOp(info, call); kind != lockNone {
		key := lockClassKey(info, recv)
		if key == "" {
			return
		}
		switch kind {
		case lockAcquire:
			st.acquire(held, key, call.Pos(), "", report)
			held[key] = true
		case lockRelease:
			if !deferred {
				delete(held, key)
			}
		}
		return
	}
	if len(held) == 0 {
		return
	}
	// Transitive acquisitions of the callees and of any literal arguments.
	// via is the callee's key (a literal's is its position), or "func
	// literal" for a literal passed as an argument here.
	targets := map[string]string{}
	charge := func(key, via string) {
		for t := range st.acquires[key] {
			if _, ok := targets[t]; !ok {
				targets[t] = via
			}
		}
	}
	for _, key := range st.mod.callees(info, call) {
		charge(key, key)
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			charge(st.mod.litKey(lit), "func literal")
		}
	}
	for _, t := range sortedKeys(targets) {
		st.acquire(held, t, call.Pos(), targets[t], report)
	}
}

// acquire checks one (held set, target class) acquisition and records the
// edges. via is the callee carrying the acquisition, "" when the Lock call
// is in this function.
func (st *lockState) acquire(held map[string]bool, target string, pos token.Pos, via string, report bool) {
	suffix := ""
	if via == "func literal" {
		suffix = " (via a function literal passed here)"
	} else if via != "" {
		suffix = " (via " + st.callee(via) + ")"
	}
	for _, h := range sortedKeys(held) {
		st.recordEdge(h, target, pos, via)
		if !report {
			continue
		}
		if h == target {
			if via == "" {
				st.reportOnce(pos, "acquiring %s while it is already held: self-deadlock", shortKey(h))
			}
			continue // a call-carried re-acquisition surfaces as a cycle
		}
		if lockLeaves[h] {
			st.reportOnce(pos, "%s is a leaf lock (DESIGN §6.3) and may acquire nothing, but is held while acquiring %s%s", shortKey(h), shortKey(target), suffix)
			continue
		}
		rh, okH := lockRanks[h]
		rt, okT := lockRanks[target]
		if okH && okT && rh > rt {
			st.reportOnce(pos, "acquiring %s while holding %s inverts the DESIGN §6.3 lock hierarchy%s", shortKey(target), shortKey(h), suffix)
		}
	}
}

// callee names the body a call resolved to: a declared function by its
// key, a function literal (reached through a field or variable, not passed
// at the call) by where it is written.
func (st *lockState) callee(key string) string {
	if i, ok := st.mod.index[key]; ok && st.mod.bodies[i].lit {
		return "the function literal at " + shortKey(key)
	}
	return shortKey(key)
}

func (st *lockState) recordEdge(from, to string, pos token.Pos, via string) {
	if st.edges[from] == nil {
		st.edges[from] = map[string]lockEdge{}
	}
	if _, ok := st.edges[from][to]; !ok {
		st.edges[from][to] = lockEdge{pos: pos, via: via}
	}
}

func (st *lockState) reportOnce(pos token.Pos, format string, args ...any) {
	if msg := strconv.Itoa(int(pos)) + fmt.Sprintf(format, args...); !st.reported[msg] {
		st.reported[msg] = true
		st.p.Reportf(pos, format, args...)
	}
}

// reportCycles finds strongly connected components of the acquisition
// graph. Any SCC with more than one class — or a self-loop — means two
// executions can wait on each other.
func (st *lockState) reportCycles() {
	nodes := make([]string, 0, len(st.edges))
	for k := range st.edges {
		nodes = append(nodes, k)
	}
	sort.Strings(nodes)

	// Self-loops first: holding a class while calling something that may
	// acquire it again.
	for _, n := range nodes {
		if e, ok := st.edges[n][n]; ok && e.via != "" {
			via := st.callee(e.via)
			if e.via == "func literal" {
				via = "a function literal"
			}
			st.reportOnce(e.pos, "holding %s while calling %s, which may acquire it again: self-deadlock", shortKey(n), via)
		}
	}

	// A class's component is every class it reaches that reaches it back;
	// the graph has a few dozen classes, so plain reachability will do.
	reach := map[string]map[string]bool{}
	var visit func(v string, seen map[string]bool)
	visit = func(v string, seen map[string]bool) {
		for w := range st.edges[v] {
			if !seen[w] {
				seen[w] = true
				visit(w, seen)
			}
		}
	}
	for _, v := range nodes {
		reach[v] = map[string]bool{}
		visit(v, reach[v])
	}
	placed := map[string]bool{}
	for _, v := range nodes {
		if placed[v] {
			continue
		}
		scc := []string{v} // sorted, as nodes is
		for _, w := range nodes {
			if w != v && reach[v][w] && reach[w][v] {
				scc, placed[w] = append(scc, w), true
			}
		}
		if len(scc) == 1 {
			continue
		}
		pos := token.Pos(0)
		for _, a := range scc {
			for _, b := range scc {
				if e, ok := st.edges[a][b]; ok && (pos == 0 || e.pos < pos) {
					pos = e.pos
				}
			}
		}
		names := make([]string, len(scc))
		for i, c := range scc {
			names[i] = shortKey(c)
		}
		st.reportOnce(pos, "lock classes %s can be acquired in conflicting orders: the acquisition graph has a cycle (DESIGN §6.3)", strings.Join(names, " <-> "))
	}
}
