// Package lint is labflowvet's analysis framework: a small, stdlib-only
// analogue of golang.org/x/tools/go/analysis, tuned to this repository.
//
// The benchmark's Section-10 results are only comparable when runs are
// reproducible: every server version must see the identical event stream,
// and the table10 goldens and byte-identity tests compare simulated counters
// exactly across runs and stores. The analyzers in this package turn the repo's determinism and error-hygiene
// conventions into mechanically checked invariants:
//
//	detrand      math/rand must flow from rand.New(rand.NewSource(seed))
//	wallclock    time.Now/Since/Until forbidden outside the allowlist
//	errwrap      fmt.Errorf must wrap error arguments with %w
//	mapiter      map iteration on output paths must use sorted keys
//	mutexhygiene no mutex copies; every lock released on every return path
//	snapshothygiene snapshot read methods are lock-free and mutation-free
//
// PR 7 upgraded the framework from per-file AST walks to a module-wide,
// flow-aware driver: a lightweight CFG/def-use layer over function bodies
// (cfg.go, defuse.go) and a cross-package fact store (facts.go) let one
// pass's findings feed another across package boundaries. Three passes
// enforce the MVCC invariants PR 6 made load-bearing:
//
//	cowhygiene   values loaded from published snapshot state are immutable
//	atomichygiene a field accessed atomically anywhere is atomic everywhere
//	lockorder    mutex acquisition follows the DESIGN §6.3 hierarchy
//
// Diagnostics can be suppressed, with a mandatory justification, by a
// directive on the offending line or on its own line immediately above:
//
//	//lint:allow <analyzer> <reason>
//
// A directive without a reason is itself reported, and
// `labflowvet -allowlist` inventories every directive in the module.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
var All = []*Analyzer{Detrand, Wallclock, Errwrap, Mapiter, MutexHygiene, SnapshotHygiene, CowHygiene, AtomicHygiene, LockOrder}

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
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass carries a module-wide analyzer's view of every unit loaded
// for this run, plus the fact store shared by the whole suite.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit
	Facts    *FactStore

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
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
// analyzers run once over the whole slice with a shared fact store.
// Findings suppressed by a well-formed //lint:allow directive are dropped,
// and malformed directives are reported as findings of their own.
func RunUnits(fset *token.FileSet, units []*Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	facts := NewFactStore()
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&ModulePass{
				Analyzer: a,
				Fset:     fset,
				Units:    units,
				Facts:    facts,
				diags:    &diags,
			})
			continue
		}
		for _, u := range units {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    u.Files,
				Pkg:      u.Pkg,
				Info:     u.Info,
				diags:    &diags,
			})
		}
	}
	allows := allowSet{}
	for _, u := range units {
		us, bad := collectAllows(fset, u.Files)
		for k, lines := range us {
			if allows[k] == nil {
				allows[k] = lines
				continue
			}
			for line := range lines {
				allows[k][line] = true
			}
		}
		diags = append(diags, bad...)
	}
	kept := diags[:0]
	for _, d := range diags {
		if !allows.match(d) {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(kept)
	return kept
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// allowSet indexes //lint:allow directives by file, analyzer, and the lines
// they cover (the directive's own line and the line below it, so both
// trailing comments and own-line comments work).
type allowSet map[string]map[int]bool // "file\x00analyzer" -> covered lines

func (s allowSet) match(d Diagnostic) bool {
	for _, name := range []string{d.Analyzer, "all"} {
		if lines := s[d.File+"\x00"+name]; lines[d.Line] {
			return true
		}
	}
	return false
}

const allowPrefix = "//lint:allow"

func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	allows := allowSet{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"",
					})
					continue
				}
				name := fields[0]
				if name != "all" && ByName(name) == nil {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", name),
					})
					continue
				}
				key := pos.Filename + "\x00" + name
				if allows[key] == nil {
					allows[key] = map[int]bool{}
				}
				allows[key][pos.Line] = true
				allows[key][pos.Line+1] = true
			}
		}
	}
	return allows, bad
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

// scanDirectives lists every //lint:allow directive in the files, in
// encounter order (callers sort).
func scanDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
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
				out = append(out, d)
			}
		}
	}
	return out
}
