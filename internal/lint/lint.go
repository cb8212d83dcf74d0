// Package lint is labflowvet's analysis framework: a small, stdlib-only
// analogue of golang.org/x/tools/go/analysis, tuned to this repository.
//
// The benchmark's Section-10 results are only comparable when runs are
// reproducible: every server version must see the identical event stream,
// and the table10 goldens and byte-identity tests compare simulated counters
// exactly across runs and stores. Each analyzer here catches, at some real
// site, a mistake that no test, golden, run-twice comparison, go vet or
// -race run catches (the ledger in DESIGN §6 names the site):
//
//	detrand      math/rand must flow from rand.New(rand.NewSource(seed))
//	wallclock    time.Now/Since/Until forbidden outside the allowlist
//	errwrap      fmt.Errorf must wrap error arguments with %w
//	mapiter      map iteration on output paths must use sorted keys
//	mutexhygiene every lock released on every return path, in its own flavor
//	snapshothygiene snapshot read methods take no lock
//
// The module-wide passes share a flow layer: a CFG and forward dataflow
// solver for one body (cfg.go, defuse.go) and, across the module, one
// enumeration of function bodies, one call-edge function that resolves
// function values where every assignment is visible, and one summary
// solver (summary.go). Two passes enforce the MVCC invariants:
//
//	cowhygiene   values loaded from published snapshot state are immutable
//	lockorder    mutex acquisition follows the DESIGN §6.3 hierarchy
//
// Diagnostics can be suppressed, with a mandatory justification, by a
// directive on the offending line or on its own line immediately above:
//
//	//lint:allow <analyzer> <reason>
//
// A directive without a reason is itself reported, and so is one for an
// analyzer that ran and found nothing on its lines.
// `labflowvet -allowlist` inventories every directive in the module.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding, positioned in the caller's file set.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named pass. Run analyzes one type-checked unit at a
// time; RunModule, when set, runs instead over every unit of the module at
// once with a shared fact store — the shape the flow-aware passes need,
// since a mutation summary computed in labbase must be visible while
// analyzing shard. Exactly one of the two must be set.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// All is the suite run by cmd/labflowvet, in reporting order.
var All = []*Analyzer{Detrand, Wallclock, Errwrap, Mapiter, MutexHygiene, SnapshotHygiene, CowHygiene, LockOrder}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, diagnosticAt(p.Analyzer.Name, p.Fset.Position(pos), fmt.Sprintf(format, args...)))
}

// diagnosticAt is the one constructor of a Diagnostic, for analyzers and
// for the directive checks alike.
func diagnosticAt(analyzer string, pos token.Position, msg string) Diagnostic {
	return Diagnostic{Analyzer: analyzer, Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg}
}

// ModulePass carries a module-wide analyzer's view of every unit loaded
// for this run.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit

	diags  *[]Diagnostic
	module *module
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, diagnosticAt(p.Analyzer.Name, p.Fset.Position(pos), fmt.Sprintf(format, args...)))
}

// RunAnalyzers applies each analyzer to one type-checked package and
// returns the surviving diagnostics. It wraps the files as a single-unit
// module, so module-wide analyzers work too — they simply see one unit.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	unit := &Unit{Path: pkg.Path(), Fset: fset, Files: files, Pkg: pkg, Info: info}
	return RunUnits(fset, []*Unit{unit}, analyzers)
}

// RunUnits applies each analyzer across every unit and returns the
// surviving diagnostics: per-unit analyzers run unit by unit, module-wide
// analyzers run once over the whole slice with a shared call graph.
// Findings suppressed by a well-formed //lint:allow directive are dropped,
// and malformed or stale directives are reported as findings of their own.
func RunUnits(fset *token.FileSet, units []*Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var mod *module // the call graph, built for the first module-wide analyzer
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.RunModule != nil {
			if mod == nil {
				mod = newModule(fset, units)
			}
			a.RunModule(&ModulePass{Analyzer: a, Fset: fset, Units: units, diags: &diags, module: mod})
			continue
		}
		for _, u := range units {
			a.Run(&Pass{Analyzer: a, Fset: fset, Files: u.Files, Pkg: u.Pkg, Info: u.Info, diags: &diags})
		}
	}
	ran["all"] = len(ran) == len(All)
	// A well-formed directive covers its own line and the line below it, so
	// both trailing comments and own-line comments work.
	var allows []*allow
	for _, u := range units {
		scanDirectives(fset, u.Files, func(pos token.Position, d Directive) {
			switch {
			case d.Reason == "":
				diags = append(diags, diagnosticAt("directive", pos, "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\""))
			case !d.Known:
				diags = append(diags, diagnosticAt("directive", pos, fmt.Sprintf("//lint:allow names unknown analyzer %q", d.Analyzer)))
			default:
				allows = append(allows, &allow{pos: pos, analyzer: d.Analyzer})
			}
		})
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, a := range allows {
			if a.covers(d) {
				a.used, suppressed = true, true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	// A directive for an analyzer that ran and suppressed nothing is stale:
	// the finding it excused is gone, and it would silently excuse the next
	// one on its lines.
	for _, a := range allows {
		if ran[a.analyzer] && !a.used {
			kept = append(kept, diagnosticAt("directive", a.pos, fmt.Sprintf("//lint:allow %s suppresses no %s finding; delete it", a.analyzer, a.analyzer)))
		}
	}
	sortDiagnostics(kept)
	return kept
}

func sortDiagnostics(diags []Diagnostic) {
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
			strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
}

// allow is one well-formed directive; used records that it suppressed a
// finding.
type allow struct {
	pos      token.Position
	analyzer string
	used     bool
}

// covers reports whether the directive suppresses d: same file, d's
// analyzer or "all", on the directive's line or the next.
func (a *allow) covers(d Diagnostic) bool {
	return a.pos.Filename == d.File && (a.analyzer == d.Analyzer || a.analyzer == "all") &&
		(d.Line == a.pos.Line || d.Line == a.pos.Line+1)
}

// Directive is one //lint:allow suppression found in the module, for the
// -allowlist inventory. Known reports whether the named analyzer (or
// "all") still exists; Reason is empty for malformed directives.
type Directive struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
	Known    bool   `json:"known"`
}

// scanDirectives calls fn with every //lint:allow directive in the files,
// in encounter order, and the position of its comment.
func scanDirectives(fset *token.FileSet, files []*ast.File, fn func(token.Position, Directive)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				pos := fset.Position(c.Pos())
				d := Directive{File: pos.Filename, Line: pos.Line}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					d.Analyzer = fields[0]
					d.Known = d.Analyzer == "all" || ByName(d.Analyzer) != nil
				}
				if len(fields) > 1 {
					d.Reason = strings.Join(fields[1:], " ")
				}
				fn(pos, d)
			}
		}
	}
}
