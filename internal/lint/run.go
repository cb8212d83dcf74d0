package lint

import (
	"cmp"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
)

// Options configures one labflowvet run.
type Options struct {
	Dir      string   // working directory; "" means "."
	Patterns []string // package patterns; empty means ./...
}

// Run loads the requested packages and applies the analyzer suite, returning
// every surviving diagnostic sorted by position. File names are reported
// relative to Dir when possible.
func Run(opts Options) ([]Diagnostic, error) {
	loader, units, rel, err := load(opts)
	if err != nil {
		return nil, err
	}
	// One driver run over every unit: module-wide analyzers need the whole
	// slice at once so cross-package facts (mutation summaries, lock
	// acquisition sets) line up.
	diags := RunUnits(loader.Fset, units, All)
	for i := range diags {
		diags[i].File = rel(diags[i].File)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// Directives loads the requested packages and inventories every
// //lint:allow directive, sorted by position, for `labflowvet -allowlist`.
// File names are reported relative to Dir when possible.
func Directives(opts Options) ([]Directive, error) {
	loader, units, rel, err := load(opts)
	if err != nil {
		return nil, err
	}
	var out []Directive
	for _, u := range units {
		scanDirectives(loader.Fset, u.Files, func(_ token.Position, d Directive) {
			d.File = rel(d.File)
			out = append(out, d)
		})
	}
	slices.SortFunc(out, func(a, b Directive) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line))
	})
	return out, nil
}

// load applies opts' defaults, loads the packages it names, and returns a
// function that rewrites a file name relative to Dir when it lies inside.
func load(opts Options) (*Loader, []*Unit, func(string) string, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	dirs, err := loader.Expand(dir, patterns)
	if err != nil {
		return nil, nil, nil, err
	}
	units, err := loader.Load(dirs)
	if err != nil {
		return nil, nil, nil, err
	}
	absDir, _ := filepath.Abs(dir)
	rel := func(file string) string {
		if r, err := filepath.Rel(absDir, file); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return file
	}
	return loader, units, rel, nil
}
