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

// TestSeededMutations pins the three invariant-breaking edits the flow-aware
// passes exist to catch. Each mutant is a minimal package type-checked under
// the real import path; each also carries the legal twin of the mutation so
// the test fails loudly if a pass starts over-reporting.
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

	t.Run("atomichygiene catches a non-atomic registry-slot read", func(t *testing.T) {
		src := `package labbase

import "sync/atomic"

type readerSlots struct {
	slots [64]uint64
}

func (r *readerSlots) pin(i int, epoch uint64) {
	atomic.StoreUint64(&r.slots[i], epoch)
}

// Mutation: the slot is written atomically by concurrent readers, and this
// reads it with a plain load.
func (r *readerSlots) peek(i int) uint64 {
	return r.slots[i]
}

// Legal twin: the atomic read.
func (r *readerSlots) load(i int) uint64 {
	return atomic.LoadUint64(&r.slots[i])
}`
		diags := mutationDiags(t, "labflow/internal/labbase", src, []*Analyzer{AtomicHygiene})
		expectDiags(t, diags, "atomichygiene:16")
	})

	t.Run("lockorder catches a reversed wmu-then-stmu acquisition", func(t *testing.T) {
		src := `package shard

import "sync"

type core struct {
	stmu   sync.Mutex
	locals []*local
}

type local struct{ wmu sync.Mutex }

// Mutation: the hierarchy is stmu (30) before wmu (40); this takes them
// backwards.
func reversed(c *core, k int) {
	c.locals[k].wmu.Lock()
	c.stmu.Lock()
	c.stmu.Unlock()
	c.locals[k].wmu.Unlock()
}

// Legal twin: descending order draws nothing.
func forward(c *core, k int) {
	c.stmu.Lock()
	c.locals[k].wmu.Lock()
	c.locals[k].wmu.Unlock()
	c.stmu.Unlock()
}`
		diags := mutationDiags(t, "labflow/internal/labbase/shard", src, []*Analyzer{LockOrder})
		// The reversed edge is reported where it is taken, and the two
		// functions together put stmu and wmu in a cycle, which the
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
}
