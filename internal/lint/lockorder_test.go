package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

// realTree is one loader over this module, shared by the tests that tie a
// lint table to the real tree so each package is type-checked once.
var realTree = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// TestLockRanksNameRealMutexes resolves every non-fixture key of lockRanks
// and lockLeaves through the module loader: each must name an existing
// sync.Mutex or sync.RWMutex field, so a rank left behind by a deleted or
// renamed lock fails here instead of silently ranking nothing.
func TestLockRanksNameRealMutexes(t *testing.T) {
	l, err := realTree()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range lockRanks {
		keys = append(keys, k)
	}
	for k := range lockLeaves {
		if _, ranked := lockRanks[k]; !ranked {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.HasPrefix(k, "fixture/") {
			continue
		}
		if err := resolveLockKey(l, k); err != nil {
			t.Errorf("lock class %s: %v", k, err)
		}
	}
}

// TestCowPublishedTypesNameRealTypes ties cowhygiene's bare-name table to
// labbase: every published type must be declared there, and dbState must be
// the element of an atomic.Pointer field of DB, the load cowhygiene taints
// from. A rename would otherwise leave the pass checking nothing.
func TestCowPublishedTypesNameRealTypes(t *testing.T) {
	l, err := realTree()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Import("labflow/internal/labbase")
	if err != nil {
		t.Fatal(err)
	}
	for name := range cowPublishedTypes {
		if _, ok := pkg.Scope().Lookup(name).(*types.TypeName); !ok {
			t.Errorf("cowPublishedTypes names %s, which labbase does not declare", name)
		}
	}
	db := pkg.Scope().Lookup("DB").Type().Underlying().(*types.Struct)
	published := false
	for i := 0; i < db.NumFields(); i++ {
		if elem := atomicPointerElem(db.Field(i).Type()); elem != nil && elem.Obj().Name() == "dbState" {
			published = true
		}
	}
	if !published {
		t.Error("labbase.DB has no atomic.Pointer[dbState] field for cowhygiene to taint loads from")
	}
}

// TestSnapshotHygieneSelectsSnapMethods runs snapshothygiene's receiver
// match over the real labbase package: it must select methods of
// labbase.Snap, or a rename would leave the pass checking nothing.
func TestSnapshotHygieneSelectsSnapMethods(t *testing.T) {
	l, err := realTree()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Expand(".", []string{"../labbase"})
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.Load(dirs)
	if err != nil {
		t.Fatal(err)
	}
	selected := 0
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && isSnapMethod(u.Info, fd) {
					if path, name := namedPath(deref(u.Info.TypeOf(fd.Recv.List[0].Type))); path == "labflow/internal/labbase" && name == "Snap" {
						selected++
					}
				}
			}
		}
	}
	if selected == 0 {
		t.Error("snapshothygiene selects no method of labbase.Snap")
	}
}

// resolveLockKey checks that key ("import/path.Type.field") names a mutex
// field.
func resolveLockKey(l *Loader, key string) error {
	slash := strings.LastIndex(key, "/")
	parts := strings.Split(key[slash+1:], ".")
	if len(parts) != 3 {
		return errors.New("not of the form import/path.Type.field")
	}
	pkg, err := l.Import(key[:slash+1] + parts[0])
	if err != nil {
		return err
	}
	tn, ok := pkg.Scope().Lookup(parts[1]).(*types.TypeName)
	if !ok {
		return fmt.Errorf("no type %s", parts[1])
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return fmt.Errorf("%s is not a struct", parts[1])
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != parts[2] {
			continue
		}
		if n, ok := f.Type().(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" &&
			(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex") {
			return nil
		}
		return fmt.Errorf("field has type %s, not sync.Mutex or sync.RWMutex", f.Type())
	}
	return fmt.Errorf("no field %s", parts[2])
}
