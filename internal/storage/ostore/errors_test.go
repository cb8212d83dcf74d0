package ostore

import (
	"errors"
	"io/fs"
	"path/filepath"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/repl"
)

// TestSentinelUnwrapping pins the error-chain contract enforced by the
// errwrap analyzer: every layer of the manager wraps with %w, so callers can
// match the shared storage sentinels with errors.Is no matter how many
// "ostore:" / "pagefile:" prefixes were added on the way up.
func TestSentinelUnwrapping(t *testing.T) {
	m := openTemp(t, Options{})

	if _, err := m.Read(storage.MakeOID(storage.SegHistory, 12345)); !errors.Is(err, storage.ErrNoSuchObject) {
		t.Errorf("Read(bogus) = %v; want chain containing storage.ErrNoSuchObject", err)
	}

	oid := storage.MakeOID(storage.SegMaterial, 77)
	if err := m.Write(oid, []byte("x")); !errors.Is(err, storage.ErrNoTransaction) {
		t.Errorf("Write outside txn = %v; want chain containing storage.ErrNoTransaction", err)
	}

	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.Read(storage.MakeOID(storage.SegMaterial, 1)); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("Read after Close = %v; want chain containing storage.ErrClosed", err)
	}
}

// TestOpenErrorExposesPathError checks errors.As through the Open path: a
// backing file that cannot be created surfaces the underlying *fs.PathError
// (with the failing path) through the "ostore:" wrapping.
func TestOpenErrorExposesPathError(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "store.db")
	_, err := Open(Options{Path: bad})
	if err == nil {
		t.Fatal("Open with an uncreatable path succeeded")
	}
	var pathErr *fs.PathError
	if !errors.As(err, &pathErr) {
		t.Fatalf("Open error %v; want chain containing *fs.PathError", err)
	}
	// The store touches the redo log (Path+".log") first, so either file
	// may be the one named in the failure.
	if pathErr.Path != bad && pathErr.Path != bad+".log" {
		t.Errorf("PathError.Path = %q, want %q or %q", pathErr.Path, bad, bad+".log")
	}
}

// TestShipperNeedsLog: a record is shipped at its log's durability point,
// so Open refuses a Shipper with neither Path nor Log, and closes a Backing
// it was handed exactly once.
func TestShipperNeedsLog(t *testing.T) {
	st, err := repl.OpenFileStandby(filepath.Join(t.TempDir(), "standby.db"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if m, err := Open(Options{Shipper: st}); err == nil {
		m.Close()
		t.Fatal("Open took a Shipper without a redo log")
	}
	cb := &countingBacking{Backing: pagefile.NewMem()}
	if m, err := Open(Options{Shipper: st, Backing: cb}); err == nil {
		m.Close()
		t.Fatal("Open took a Shipper and a Backing without a redo log")
	}
	if cb.closes != 1 {
		t.Errorf("backing closed %d times, want exactly 1", cb.closes)
	}
}
