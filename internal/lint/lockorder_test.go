package lint

import (
	"errors"
	"fmt"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestLockRanksNameRealMutexes resolves every non-fixture key of lockRanks
// and lockLeaves through the module loader: each must name an existing
// sync.Mutex or sync.RWMutex field, so a rank left behind by a deleted or
// renamed lock fails here instead of silently ranking nothing.
func TestLockRanksNameRealMutexes(t *testing.T) {
	l, err := NewLoader(".")
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
