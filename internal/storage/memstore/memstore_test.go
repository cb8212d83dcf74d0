package memstore

import (
	"errors"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/storagetest"
)

func TestConformance(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		m := Open("Test-mm")
		t.Cleanup(func() { m.Close() })
		return m
	})
}

func TestNameAndSize(t *testing.T) {
	m := Open("OStore-mm")
	defer m.Close()
	if m.Name() != "OStore-mm" {
		t.Errorf("Name = %q", m.Name())
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(storage.SegHistory, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	// Main-memory versions report no persistent footprint, matching the
	// blank size entries in the paper's table.
	if got := m.Stats().SizeBytes; got != 0 {
		t.Errorf("SizeBytes = %d, want 0", got)
	}
	if got := m.Stats().Faults; got != 0 {
		t.Errorf("Faults = %d, want 0", got)
	}
}

// TestUpdateFallback: over a manager that hides Update (a decorator that
// implements Manager method by method), storage.Update reads the record,
// runs fn on the copy and writes it back, and writes nothing when fn fails.
func TestUpdateFallback(t *testing.T) {
	m := struct{ storage.Manager }{Open("fallback-mm")}
	if _, ok := storage.Manager(m).(storage.Updater); ok {
		t.Fatal("the decorator should hide Update")
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	oid, err := m.Allocate(storage.SegIndex, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	errFn := errors.New("fn refuses")
	if err := storage.Update(m, oid, func(b []byte) error { b[0] = 'Z'; return errFn }); !errors.Is(err, errFn) {
		t.Fatalf("Update with a failing fn = %v, want its error", err)
	}
	if err := storage.Update(m, oid, func(b []byte) error { b[1] = 'X'; return nil }); err != nil {
		t.Fatalf("Update: %v", err)
	}
	after := m.Stats()
	if after.Reads-before.Reads != 2 || after.Writes-before.Writes != 1 {
		t.Errorf("two fallback Updates, one failing: %d reads and %d writes; want 2 and 1",
			after.Reads-before.Reads, after.Writes-before.Writes)
	}
	if got, err := m.Read(oid); err != nil || string(got) != "aXc" {
		t.Fatalf("after the fallback Updates = %q, %v", got, err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := storage.Update(m, oid, func([]byte) error { return nil }); !errors.Is(err, storage.ErrNoTransaction) {
		t.Fatalf("fallback Update outside txn = %v, want ErrNoTransaction", err)
	}
}
