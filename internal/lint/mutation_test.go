package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// mutationDiags type-checks src under pkgPath — so field keys line up with
// the real rank and published-type tables — and runs the given analyzers.
func mutationDiags(t *testing.T, pkgPath, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "mutant.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking mutant: %v", err)
	}
	return RunAnalyzers(fset, []*ast.File{f}, pkg, info, analyzers)
}

// expectDiags asserts the diagnostics are exactly the (analyzer, line)
// pairs given, in order.
func expectDiags(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d", d.Analyzer, d.Line))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		var full []string
		for _, d := range diags {
			full = append(full, d.String())
		}
		t.Errorf("got %v, want %v\nfull diagnostics:\n%s", got, want, strings.Join(full, "\n"))
	}
}

// TestSeededMutations pins, for every analyzer in All, an invariant-breaking
// edit of the real tree that it must catch. Each mutant is a minimal package
// type-checked under the real import path; each also carries the legal twin
// of the mutation so the test fails loudly if a pass starts over-reporting.
func TestSeededMutations(t *testing.T) {
	t.Run("cowhygiene catches a plain write to a published dbState field", func(t *testing.T) {
		src := `package labbase

import "sync/atomic"

type treapNode struct {
	left, right *treapNode
}

type dbState struct {
	epoch    uint64
	nameRoot *treapNode
}

type DB struct {
	state atomic.Pointer[dbState]
}

// Mutation: the loaded state is shared with every reader, and this writes
// straight through it.
func corrupt(db *DB) {
	st := db.state.Load()
	st.nameRoot = nil
}

// Legal twin: copy first, then mutate the private copy.
func evolve(db *DB) *dbState {
	next := *db.state.Load()
	next.epoch++
	next.nameRoot = nil
	return &next
}`
		diags := mutationDiags(t, "labflow/internal/labbase", src, []*Analyzer{CowHygiene})
		expectDiags(t, diags, "cowhygiene:22")
	})

	t.Run("lockorder catches a reversed pool.mu-then-stmu acquisition", func(t *testing.T) {
		src := `package shard

import "sync"

type core struct {
	stmu  sync.Mutex
	pools []*pool
}

type pool struct{ mu sync.Mutex }

// Mutation: the hierarchy is stmu (30) before pool.mu (34); this takes
// them backwards.
func reversed(c *core, k int) {
	c.pools[k].mu.Lock()
	c.stmu.Lock()
	c.stmu.Unlock()
	c.pools[k].mu.Unlock()
}

// Legal twin: descending order draws nothing.
func forward(c *core, k int) {
	c.stmu.Lock()
	c.pools[k].mu.Lock()
	c.pools[k].mu.Unlock()
	c.stmu.Unlock()
}`
		diags := mutationDiags(t, "labflow/internal/labbase/shard", src, []*Analyzer{LockOrder})
		// The reversed edge is reported where it is taken, and the two
		// functions together put stmu and pool.mu in a cycle, which the
		// module-wide graph check also reports.
		if len(diags) == 0 {
			t.Fatal("reversed acquisition drew no diagnostics")
		}
		foundInvert, foundAtReversed := false, false
		for _, d := range diags {
			if d.Analyzer != "lockorder" {
				t.Errorf("unexpected analyzer in %s", d.String())
			}
			if strings.Contains(d.Message, "inverts") {
				foundInvert = true
				if d.Line == 16 {
					foundAtReversed = true
				}
			}
		}
		if !foundInvert || !foundAtReversed {
			var full []string
			for _, d := range diags {
				full = append(full, d.String())
			}
			t.Errorf("missing inversion report at mutant.go:16:\n%s", strings.Join(full, "\n"))
		}
	})

	t.Run("lockorder catches a handler that re-takes Server.mu through the op table", func(t *testing.T) {
		src := `package wire

import "sync"

type Server struct {
	mu sync.Mutex
	n  int
}

type connState struct{ bracket bool }

type handler[Q any] func(s *Server, cs *connState, q Q) (int, error)

type op[Q any] struct {
	name    string
	handler handler[Q]
}

func def[Q any](name string, h handler[Q]) *op[Q] {
	return &op[Q]{name: name, handler: h}
}

type opRow struct {
	handle func(s *Server, cs *connState, payload []byte) (int, error)
}

func (o *op[Q]) row() opRow { return opRow{handle: o.serve} }

func (o *op[Q]) serve(s *Server, cs *connState, payload []byte) (int, error) {
	var q Q
	return s.exec(cs, func() (int, error) { return o.handler(s, cs, q) })
}

func (s *Server) exec(cs *connState, fn func() (int, error)) (int, error) { return fn() }

var opTable = []opRow{
	def("Count", func(s *Server, _ *connState, _ string) (int, error) { return s.n, nil }).row(),
	// Mutation: a write handler that takes the writer lock its dispatcher
	// already holds.
	def("Reset", func(s *Server, _ *connState, n int) (int, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.n = n
		return n, nil
	}).row(),
}

func (s *Server) locked(cs *connState, op int, payload []byte) (int, error) {
	row := opTable[op]
	if op == 0 {
		// Legal twin: the lock-free arm runs the same rows holding nothing.
		return row.handle(s, cs, payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return row.handle(s, cs, payload)
}`
		diags := mutationDiags(t, "labflow/internal/wire", src, []*Analyzer{LockOrder})
		expectDiags(t, diags, "lockorder:56")
	})

	for _, m := range []struct {
		name, pkgPath, src string
		analyzer           *Analyzer
		want               []string
	}{
		{
			name:     "detrand catches a crash point drawn from the global generator",
			pkgPath:  "labflow/internal/fault",
			analyzer: Detrand,
			want:     []string{"detrand:10"},
			src: `package fault

import "math/rand"

type Plan struct{ CrashOp uint64 }

// Mutation: the crash point comes from the process-global generator, so a
// seed no longer names one schedule.
func NewPlan(seed int64, maxOp uint64) Plan {
	return Plan{CrashOp: uint64(rand.Int63n(int64(maxOp))) + 1}
}

// Legal twin: the seeded stream.
func newPlan(seed int64, maxOp uint64) Plan {
	rng := rand.New(rand.NewSource(seed))
	return Plan{CrashOp: uint64(rng.Int63n(int64(maxOp))) + 1}
}`,
		},
		{
			name:     "wallclock catches a step stamped from the wall clock",
			pkgPath:  "labflow/internal/labbase",
			analyzer: Wallclock,
			want:     []string{"wallclock:10"},
			src: `package labbase

import "time"

type DB struct{ clock uint64 }

// Mutation: transaction time read from the wall clock, so two replays of
// one trace store different timestamps.
func (db *DB) stamp() int64 {
	return time.Now().UnixNano()
}

// Legal twin: the logical transaction-time counter.
func (db *DB) tick() uint64 {
	db.clock++
	return db.clock
}`,
		},
		{
			name:     "errwrap catches a storage error that drops its cause",
			pkgPath:  "labflow/internal/storage/pagefile",
			analyzer: Errwrap,
			want:     []string{"errwrap:10"},
			src: `package pagefile

import "fmt"

func begin() error { return nil }

// Mutation: %v flattens the cause, so errors.Is no longer finds it.
func format() error {
	if err := begin(); err != nil {
		return fmt.Errorf("pagefile: format begin: %v", err)
	}
	return nil
}

// Legal twin: %w keeps the chain.
func reformat() error {
	if err := begin(); err != nil {
		return fmt.Errorf("pagefile: format begin: %w", err)
	}
	return nil
}`,
		},
		{
			name:     "mapiter catches report rows printed in map order",
			pkgPath:  "labflow/internal/metrics",
			analyzer: Mapiter,
			want:     []string{"mapiter:11"},
			src: `package metrics

import (
	"fmt"
	"io"
	"sort"
)

// Mutation: the rows come out in map order, different on every run.
func writeCounts(w io.Writer, counts map[string]int) {
	for name, n := range counts {
		fmt.Fprintf(w, "%s %d\n", name, n)
	}
}

// Legal twin: sorted keys.
func writeCountsSorted(w io.Writer, counts map[string]int) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, counts[name])
	}
}`,
		},
		{
			name:     "mutexhygiene catches a lock carried out by break, goto and a labeled break",
			pkgPath:  "labflow/internal/storage/ostore",
			analyzer: MutexHygiene,
			want:     []string{"mutexhygiene:21", "mutexhygiene:34", "mutexhygiene:49"},
			src: `package ostore

import "sync"

type pager struct {
	mu    sync.Mutex
	dirty int
}

func ready() bool { return false }

// Mutation: the break leaves the loop with p.mu still held.
func (p *pager) drain() int {
	for {
		p.mu.Lock()
		if ready() {
			break
		}
		p.mu.Unlock()
	}
	return 0
}

// Mutation: the goto jumps past the unlock.
func (p *pager) flush(ok bool) int {
	p.mu.Lock()
	if ok {
		goto out
	}
	p.dirty = 0
	p.mu.Unlock()
	return 1
out:
	return 2
}

// Mutation: the labeled break leaves both loops with p.mu still held.
func (p *pager) scan(pages [][]int) int {
outer:
	for {
		p.mu.Lock()
		for _, v := range pages[p.dirty] {
			if v < 0 {
				break outer
			}
		}
		p.mu.Unlock()
	}
	return 0
}

// Legal twins: the same shapes, unlocking before they jump.
func (p *pager) drainUnlocked() int {
	for {
		p.mu.Lock()
		if ready() {
			p.mu.Unlock()
			break
		}
		p.mu.Unlock()
	}
	return 0
}

func (p *pager) flushUnlocked(ok bool) int {
	p.mu.Lock()
	if ok {
		p.mu.Unlock()
		goto out
	}
	p.dirty = 0
	p.mu.Unlock()
	return 1
out:
	return 2
}

func (p *pager) scanUnlocked(pages [][]int) int {
outer:
	for {
		p.mu.Lock()
		for _, v := range pages[p.dirty] {
			if v < 0 {
				p.mu.Unlock()
				break outer
			}
		}
		p.mu.Unlock()
	}
	return 0
}`,
		},
		{
			name:     "snapshothygiene catches a snapshot read that takes the writer lock",
			pkgPath:  "labflow/internal/labbase",
			analyzer: SnapshotHygiene,
			want:     []string{"snapshothygiene:20", "snapshothygiene:21"},
			src: `package labbase

import "sync"

type catalog struct{ materialClasses []string }

type DB struct {
	wmu sync.Mutex
	cat *catalog
}

type Snap struct {
	db  *DB
	cat *catalog
}

// Mutation: a snapshot read that takes the writer lock, bringing back the
// reader/writer contention snapshots removed.
func (s *Snap) MaterialClasses() []string {
	s.db.wmu.Lock()
	defer s.db.wmu.Unlock()
	return append([]string(nil), s.db.cat.materialClasses...)
}

// Legal twin: read the catalog captured with the snapshot.
func (s *Snap) StepClasses() []string {
	return append([]string(nil), s.cat.materialClasses...)
}`,
		},
	} {
		t.Run(m.name, func(t *testing.T) {
			expectDiags(t, mutationDiags(t, m.pkgPath, m.src, []*Analyzer{m.analyzer}), m.want...)
		})
	}
}
