package texas

import (
	"bytes"
	"fmt"
	"labflow/internal/fault/gate"
	"path/filepath"
	"testing"

	"labflow/internal/storage"
	"labflow/internal/storage/pagefile"
	"labflow/internal/storage/storagetest"
)

func openTemp(t *testing.T, opts Options) storage.Manager {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "texas.db")
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestConformanceFile(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		return openTemp(t, Options{})
	})
}

func TestConformanceClustered(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		return openTemp(t, Options{Clustering: true})
	})
}

func TestConformanceBoundedResidency(t *testing.T) {
	storagetest.Conformance(t, func(t *testing.T) storage.Manager {
		return openTemp(t, Options{MaxResidentPages: 24})
	})
}

func TestNames(t *testing.T) {
	plain := openTemp(t, Options{})
	if plain.Name() != "Texas" {
		t.Errorf("Name = %q, want Texas", plain.Name())
	}
	tc := openTemp(t, Options{Clustering: true})
	if tc.Name() != "Texas+TC" {
		t.Errorf("Name = %q, want Texas+TC", tc.Name())
	}
}

// TestPersistence closes a database and reopens it, checking that committed
// data survives.
func TestPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "texas.db")
	m, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	var oids []storage.OID
	for i := 0; i < 500; i++ {
		oid, err := m.Allocate(storage.SegHistory, []byte(fmt.Sprintf("persistent-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	big, err := m.Allocate(storage.SegHistory, bytes.Repeat([]byte("L"), 30000))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRoot(oids[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	for i, oid := range oids {
		got, err := m2.Read(oid)
		if err != nil || string(got) != fmt.Sprintf("persistent-%d", i) {
			t.Fatalf("Read %v after reopen = %q, %v", oid, got, err)
		}
	}
	if got, err := m2.Read(big); err != nil || len(got) != 30000 {
		t.Fatalf("big record after reopen: len=%d err=%v", len(got), err)
	}
	root, err := m2.Root()
	if err != nil || root != oids[0] {
		t.Fatalf("Root after reopen = %v, %v; want %v", root, err, oids[0])
	}
}

// TestFaultOnFirstTouch checks the residency accounting: reopening a
// database and touching N distinct pages should fault roughly N times, and
// re-touching them should fault zero times.
func TestFaultOnFirstTouch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "texas.db")
	m, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	var oids []storage.OID
	payload := bytes.Repeat([]byte("p"), 1000) // ~8 records per page
	for i := 0; i < 400; i++ {
		oid, err := m.Allocate(storage.SegHistory, payload)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	base := m2.Stats().Faults
	for _, oid := range oids {
		if _, err := m2.Read(oid); err != nil {
			t.Fatal(err)
		}
	}
	cold := m2.Stats().Faults - base
	if cold == 0 {
		t.Fatal("expected faults on cold reads")
	}
	for _, oid := range oids {
		if _, err := m2.Read(oid); err != nil {
			t.Fatal(err)
		}
	}
	warm := m2.Stats().Faults - base - cold
	if warm != 0 {
		t.Errorf("warm re-reads faulted %d times, want 0", warm)
	}
	// 400 KB of records on 8 KiB pages: ~57 data pages plus table pages.
	if cold > 120 {
		t.Errorf("cold faults = %d, want around 60-80", cold)
	}
}

// TestClusteringImprovesLocality demonstrates the Texas vs Texas+TC effect:
// many "families" allocate records round-robin (worst case for allocation
// order); a cold scan of one family faults far fewer pages when clustering
// keeps each family on its own cluster pages.
func TestClusteringImprovesLocality(t *testing.T) {
	const nFamilies = 32
	const perFamily = 24
	payload := bytes.Repeat([]byte("h"), 400)

	run := func(clustering bool) (uint64, uint64) {
		dir := t.TempDir()
		path := filepath.Join(dir, "db")
		m, err := Open(Options{Path: path, Clustering: clustering})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Begin(); err != nil {
			t.Fatal(err)
		}
		heads := make([]storage.OID, nFamilies)
		for i := range heads {
			oid, err := m.AllocateCluster(storage.SegHistory, payload)
			if err != nil {
				t.Fatal(err)
			}
			heads[i] = oid
		}
		members := make([][]storage.OID, nFamilies)
		tails := make([]storage.OID, nFamilies)
		copy(tails, heads)
		for j := 0; j < perFamily; j++ {
			for i := range heads {
				oid, err := m.AllocateNear(tails[i], payload)
				if err != nil {
					t.Fatal(err)
				}
				members[i] = append(members[i], oid)
				tails[i] = oid
			}
		}
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		m2, err := Open(Options{Path: path, Clustering: clustering})
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Close()
		base := m2.Stats().Faults
		// Cold scan of one family: the "history of one clone".
		for _, oid := range members[10] {
			if _, err := m2.Read(oid); err != nil {
				t.Fatal(err)
			}
		}
		return m2.Stats().Faults - base, m2.Stats().SizeBytes
	}

	scattered, plainSize := run(false)
	clustered, tcSize := run(true)
	if clustered >= scattered {
		t.Errorf("clustered scan faulted %d pages, scattered %d; clustering should win", clustered, scattered)
	}
	// Clustering packs records exactly (no heap slack), so its size must
	// stay within a modest factor of the plain heap despite partial final
	// pages — as in the paper, where Texas+TC was no larger than Texas.
	if tcSize > plainSize*3/2 {
		t.Errorf("clustered size %d far exceeds plain size %d", tcSize, plainSize)
	}
}

// gatedBacking parks WritePage in a gate.Gate.
type gatedBacking struct {
	pagefile.Backing
	gate *gate.Gate
}

func (b gatedBacking) WritePage(id pagefile.PageID, buf []byte) error {
	b.gate.Pass()
	return b.Backing.WritePage(id, buf)
}

// TestStalledFlushHarmless runs the stalled-commit schedule over texas,
// whose pager holds its own mutex across the whole write-back. pagefile.Store
// letting go of its mutex for the flush buys readers nothing here — they
// queue on the pager instead — but it must cost nothing either: no deadlock
// between the two mutexes, Begin and Close still wait, every call returns
// once the flush does, and the reopened store equals the shadow.
func TestStalledFlushHarmless(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stalled.db")
	fb, err := pagefile.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gate.Gate{}
	m, err := Open(Options{Backing: gatedBacking{fb, gate}})
	if err != nil {
		t.Fatal(err)
	}
	storagetest.StalledCommit(t, m, gate, storagetest.Serialized, func() storage.Manager {
		m2, err := Open(Options{Path: path})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return m2
	})
}
