package lint

import (
	"go/ast"
	"maps"
)

// A lightweight control-flow graph over one function body, the flow half
// of the analysis framework. Each Block is a straight-line run of nodes;
// Succs are the possible continuations. Nodes are statements plus the
// condition/tag expressions of the control statements that end a block, so
// a dataflow client sees every definition and use exactly once, in
// execution order, without descending into nested bodies (those live in
// their own blocks). Function literals are deliberately opaque: a closure
// body is its own function and is analyzed separately by clients.
//
// The graph is deliberately modest — no critical-edge splitting, no
// post-dominators — and has one solver, forward. Its three clients each
// supply only a join and a transfer function: reaching definitions
// (defuse.go, for cowhygiene; union), may-held lock classes (lockorder;
// union) and must-held locks (mutexhygiene's path rule; intersection).
type CFG struct {
	Entry  *Block
	Exit   *Block // every return/fallthrough-at-end edge lands here; empty
	Blocks []*Block
	// Defers lists the defer statements in source order. Deferred calls run
	// at every exit while the function's state is whatever the exit path
	// left; clients that care (lock analyses) handle them explicitly.
	Defers []*ast.DeferStmt
}

// Block is one straight-line run of nodes with its successor edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

type cfgBuilder struct {
	g   *CFG
	cur *Block
	// break/continue targets for the enclosing loops and switches, plus
	// labeled variants.
	breaks    []*Block
	continues []*Block
	labels    map[string]*labelTarget
	label     *labelTarget // set until the labeled loop/switch opens
	// gotos seen before their label: resolved at the end.
	pendingGotos map[string][]*Block
}

type labelTarget struct {
	brk, cont *Block // break/continue targets while the labeled stmt is open
	stmt      *Block // the labeled statement's own block (goto target)
}

// buildCFG constructs the CFG of one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:            &CFG{},
		labels:       map[string]*labelTarget{},
		pendingGotos: map[string][]*Block{},
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = &Block{Index: -1}
	b.cur = b.g.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block (creating one if control just
// branched away, so unreachable code is still scanned for defs/uses).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmts(s.Body.List)
		thenEnd := b.cur
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd := b.cur
			join := b.newBlock()
			b.edge(thenEnd, join)
			b.edge(elseEnd, join)
			b.cur = join
		} else {
			join := b.newBlock()
			b.edge(cond, join)
			b.edge(thenEnd, join)
			b.cur = join
		}
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after) // condition false
		}
		post := b.newBlock()
		b.pushLoop(after, post)
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, post)
		b.popLoop()
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.cur = after
	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s) // the RangeStmt node carries X's use and Key/Value defs
		after := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(after, head)
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.branching(s)
	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		name := s.Label.Name
		lt := &labelTarget{stmt: target}
		b.labels[name] = lt
		for _, g := range b.pendingGotos[name] {
			b.edge(g, target)
		}
		delete(b.pendingGotos, name)
		// The labeled loop or switch, if that is what follows, records its
		// break/continue targets on lt when it opens (pushLoop).
		b.label = lt
		b.stmt(s.Stmt)
		b.label = nil
	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			b.add(s)
			if t := b.branchTarget(s, true); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case "continue":
			b.add(s)
			if t := b.branchTarget(s, false); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case "goto":
			b.add(s)
			if lt, ok := b.labels[s.Label.Name]; ok {
				b.edge(b.cur, lt.stmt)
			} else {
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur)
			}
			b.cur = nil
		case "fallthrough":
			b.add(s) // successor wiring handled by the switch builder
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil
	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)
	default:
		// Assignments, declarations, expressions, go, send, incdec, empty.
		b.add(s)
	}
}

// branching lowers switch/type-switch/select: every arm starts from the
// header, arms flow to a common join, and a missing default adds a direct
// header→join edge.
func (b *cfgBuilder) branching(s ast.Stmt) {
	var bodyList *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		bodyList = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		bodyList = s.Body
	case *ast.SelectStmt:
		bodyList = s.Body
		hasDefault = true // a select always runs exactly one arm (or blocks)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()
	b.pushLoop(join, nil) // break inside an arm exits the switch
	var armBlocks []*Block
	var armEnds []*Block
	for _, clause := range bodyList.List {
		var armStmts []ast.Stmt
		var comm ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			armStmts = c.Body
		case *ast.CommClause:
			comm = c.Comm
			armStmts = c.Body
		default:
			continue
		}
		arm := b.newBlock()
		b.edge(head, arm)
		b.cur = arm
		if comm != nil {
			b.stmt(comm)
		}
		b.stmts(armStmts)
		armBlocks = append(armBlocks, arm)
		armEnds = append(armEnds, b.cur)
	}
	// fallthrough: an arm ending in fallthrough also flows into the next
	// arm's entry block.
	for i, end := range armEnds {
		if end == nil {
			continue
		}
		if n := len(end.Nodes); n > 0 {
			if br, ok := end.Nodes[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && i+1 < len(armBlocks) {
				b.edge(end, armBlocks[i+1])
				continue
			}
		}
		b.edge(end, join)
	}
	if !hasDefault || len(armBlocks) == 0 {
		b.edge(head, join)
	}
	b.popLoop()
	b.cur = join
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	if b.label != nil {
		b.label.brk, b.label.cont = brk, cont
		b.label = nil
	}
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// branchTarget resolves break/continue: a labeled one to its label's loop
// or switch, a bare one to the innermost enclosing construct that takes it.
func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, isBreak bool) *Block {
	if s.Label != nil {
		lt := b.labels[s.Label.Name]
		switch {
		case lt == nil:
			return nil
		case isBreak:
			return lt.brk
		}
		return lt.cont
	}
	stack := b.continues
	if isBreak {
		stack = b.breaks
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != nil {
			return stack[i]
		}
	}
	return nil
}

// forward solves a forward dataflow problem over g to its fixpoint and
// returns the fact holding on entry to each block. entry is the fact on
// entry to the function; join merges the facts leaving a block's
// predecessors (plus entry, for g.Entry); transfer carries a fact across
// one block and must not modify its argument; equal tells the worklist
// when a block's exit fact has settled. Exit facts start as F's zero value
// and blocks are visited in index order, so the solution, and whatever a
// client replays from it, is deterministic.
func forward[F any](g *CFG, entry F, join func([]F) F, transfer func(*Block, F) F, equal func(a, b F) bool) []F {
	preds := make([][]int, len(g.Blocks))
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk.Index)
		}
	}
	in := make([]F, len(g.Blocks))
	out := make([]F, len(g.Blocks))
	work := make([]int, len(g.Blocks))
	for i := range work {
		work[i] = i
	}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		var facts []F
		if i == g.Entry.Index {
			facts = append(facts, entry)
		}
		for _, p := range preds[i] {
			facts = append(facts, out[p])
		}
		in[i] = join(facts)
		if next := transfer(g.Blocks[i], in[i]); !equal(next, out[i]) {
			out[i] = next
			for _, s := range g.Blocks[i].Succs {
				work = append(work, s.Index)
			}
		}
	}
	return in
}

// union is the join of the may-analyses: a fact holds on entry to a block
// if it holds at the end of any predecessor.
func union[K comparable](outs []map[K]bool) map[K]bool {
	u := map[K]bool{}
	for _, o := range outs {
		maps.Copy(u, o)
	}
	return u
}
