package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked body of code to analyze: a package's non-test
// files, a package augmented with its in-package test files, or an external
// _test package. Analyzers treat them all the same way.
type Unit struct {
	Dir   string
	Path  string // import path ("labflow/internal/rec", "labflow/internal/rec [tests]", ...)
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader type-checks packages of a single module from source, resolving
// module-local imports recursively in dependency order and standard-library
// imports through go/importer's source importer. It deliberately has no
// dependency on golang.org/x/tools or on the network: everything is the
// standard library, so the lint gate works in an offline CI image.
type Loader struct {
	Fset *token.FileSet

	modRoot string
	modPath string
	ctxt    *build.Context
	std     types.Importer

	pkgs    map[string]*types.Package // completed module-local packages, by import path
	loading map[string]bool           // cycle detection
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctxt := build.Default
	return &Loader{
		Fset:    fset,
		modRoot: root,
		modPath: path,
		ctxt:    &ctxt,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					mp := strings.TrimSpace(rest)
					mp = strings.Trim(mp, `"`)
					if mp == "" {
						break
					}
					return d, mp, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// Expand resolves package patterns ("./...", "./internal/rec", "dir/...")
// relative to dir into package directories under the module root, skipping
// testdata, hidden, underscore-prefixed, and nested-module directories.
func (l *Loader) Expand(dir string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			rec, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(dir, base)
		}
		base, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		info, err := os.Stat(base)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: not a directory: %s", pat, base)
		}
		if !rec {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir // nested module
				}
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a package directory to its import path in the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.modRoot)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) dirForImport(path string) (string, error) {
	if path == l.modPath {
		return l.modRoot, nil
	}
	rest, ok := strings.CutPrefix(path, l.modPath+"/")
	if !ok {
		return "", fmt.Errorf("lint: %q is not in module %s", path, l.modPath)
	}
	return filepath.Join(l.modRoot, filepath.FromSlash(rest)), nil
}

// Import implements types.Importer: module-local packages load recursively
// from source; everything else is delegated to the std source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir, err := l.dirForImport(path)
		if err != nil {
			return nil, err
		}
		return l.loadBase(dir, path)
	}
	return l.std.Import(path)
}

// loadBase type-checks the non-test files of the package in dir, memoized by
// import path. Import cycles are reported rather than recursed into.
func (l *Loader) loadBase(dir, path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Load type-checks every analyzable unit in the given package directories:
// each package with its in-package test files, plus any external _test
// package, so the analyzers see test code under the same rules as shipping
// code.
func (l *Loader) Load(dirs []string) ([]*Unit, error) {
	var units []*Unit
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}

		var augmented *types.Package // the package with its in-package test files
		if len(bp.GoFiles) > 0 || len(bp.TestGoFiles) > 0 {
			names := append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
			files, err := l.parseFiles(dir, names)
			if err != nil {
				return nil, err
			}
			unitPath := path
			if len(bp.TestGoFiles) > 0 {
				unitPath += " [tests]"
			}
			pkg, info, err := l.check(path, files)
			if err != nil {
				return nil, err
			}
			units = append(units, &Unit{Dir: dir, Path: unitPath, Fset: l.Fset, Files: files, Pkg: pkg, Info: info})
			augmented = pkg
			if _, ok := l.pkgs[path]; !ok && len(bp.TestGoFiles) == 0 {
				l.pkgs[path] = pkg // reusable as-is by importers
			}
		}

		if len(bp.XTestGoFiles) > 0 {
			files, err := l.parseFiles(dir, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			// An external test package imports its subject augmented with the
			// in-package test files (go test semantics): export_test.go
			// declarations must resolve. Swap the augmented package into the
			// import cache for this check only — other importers of the
			// subject still see the base package.
			prev, hadPrev := l.pkgs[path]
			if augmented != nil {
				l.pkgs[path] = augmented
			}
			pkg, info, err := l.check(path+"_test", files)
			if hadPrev {
				l.pkgs[path] = prev
			} else if augmented != nil {
				delete(l.pkgs, path)
			}
			if err != nil {
				return nil, err
			}
			units = append(units, &Unit{Dir: dir, Path: path + " [external tests]", Fset: l.Fset, Files: files, Pkg: pkg, Info: info})
		}
	}
	return units, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		if len(msgs) > 8 {
			msgs = append(msgs[:8], fmt.Sprintf("... and %d more", len(msgs)-8))
		}
		return nil, nil, fmt.Errorf("lint: type-checking %s failed:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}
