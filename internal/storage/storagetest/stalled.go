package storagetest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"labflow/internal/storage"
)

// Gate parks one call of whatever medium operation a test threads it
// through (a log's Sync, a backing's WritePage), so a Commit can be held
// inside its flush for as long as the test needs. Unarmed, Pass is free.
type Gate struct {
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

// Arm makes the next Pass park. entered is closed once a caller is parked;
// release lets it go.
func (g *Gate) Arm() (entered <-chan struct{}, release func()) {
	e, r := make(chan struct{}), make(chan struct{})
	g.mu.Lock()
	g.entered, g.release = e, r
	g.mu.Unlock()
	return e, func() { close(r) }
}

// Pass is what the wrapped operation calls on its way in.
func (g *Gate) Pass() {
	g.mu.Lock()
	e, r := g.entered, g.release
	g.entered, g.release = nil, nil
	g.mu.Unlock()
	if e == nil {
		return
	}
	close(e)
	<-r
}

// stallGrace is how long the driver waits before concluding that a call is
// blocked. Too short can only let a broken store pass, never fail a sound
// one.
const stallGrace = 30 * time.Millisecond

// StalledCommit holds a Commit inside its flush (through gate, which the
// caller has wired into the manager's media) and checks who waits for it.
// Begin and Close must; with readersProceed, Read — of objects committed
// earlier and of the ones the parked transaction just wrote — Root and
// Stats must not, and must already show the parked transaction's state.
// Without readersProceed (a pager that holds its own lock across the flush)
// the same calls are only required to return once the flush is released.
// The driver closes m; reopen then opens the same media afresh, and what it
// serves must equal the shadow of every committed write.
func StalledCommit(t *testing.T, m storage.Manager, gate *Gate, readersProceed bool, reopen func() storage.Manager) {
	t.Helper()
	shadow := make(map[storage.OID][]byte)
	var order []storage.OID
	var root storage.OID
	seq := 0
	write := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			data := bytes.Repeat([]byte{byte(seq)}, 100+37*seq)
			seq++
			oid, err := m.Allocate(storage.SegMaterial, data)
			if err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			shadow[oid] = data
			order = append(order, oid)
		}
		// Rewrite the oldest object too, so the parked transaction holds
		// a new image of a page readers already know.
		data := bytes.Repeat([]byte{byte(seq)}, 64)
		seq++
		if err := m.Write(order[0], data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		shadow[order[0]] = data
		root = order[len(order)-1]
		if err := m.SetRoot(root); err != nil {
			t.Fatalf("SetRoot: %v", err)
		}
	}
	// readAll runs on its own goroutine in the parked phase, so it reports
	// instead of failing the test from there.
	readAll := func() error {
		for _, oid := range order {
			got, err := m.Read(oid)
			if err != nil {
				return fmt.Errorf("Read(%v): %w", oid, err)
			}
			if !bytes.Equal(got, shadow[oid]) {
				return fmt.Errorf("Read(%v) = %d bytes, not the %d last written", oid, len(got), len(shadow[oid]))
			}
		}
		if got, err := m.Root(); err != nil {
			return fmt.Errorf("Root: %w", err)
		} else if got != root {
			return fmt.Errorf("Root = %v, want %v", got, root)
		}
		if st := m.Stats(); st.LiveObjects != uint64(len(order)) {
			return fmt.Errorf("Stats.LiveObjects = %d, want %d", st.LiveObjects, len(order))
		}
		return nil
	}
	// park begins a transaction, writes, and leaves its Commit parked in
	// the gate. The returned channel delivers Commit's result.
	park := func() (committed <-chan error, release func()) {
		t.Helper()
		begin(t, m)
		write(3)
		entered, release := gate.Arm()
		done := make(chan error, 1)
		go func() { done <- m.Commit() }()
		select {
		case <-entered:
		case err := <-done:
			t.Fatalf("Commit returned (%v) without reaching the gated flush", err)
		case <-time.After(10 * time.Second):
			t.Fatal("Commit never reached the gated flush")
		}
		return done, release
	}
	blocked := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) while a commit's flush was still in flight", what, err)
		case <-time.After(stallGrace):
		}
	}
	await := func(what string, done <-chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked after the flush was released", what)
			return nil
		}
	}

	begin(t, m)
	write(5)
	commit(t, m)

	// Round 1: readers and a second writer against a parked commit.
	committed, release := park()
	// The transaction is over as far as the store's own state goes: a
	// mutation is refused, not queued behind the flush.
	if _, err := m.Allocate(storage.SegMaterial, []byte("late")); err == nil {
		t.Fatal("Allocate succeeded with no transaction open (a commit's flush is in flight)")
	}
	reads := make(chan error, 1)
	go func() { reads <- readAll() }()
	if readersProceed {
		if err := await("Read/Root/Stats during the flush", reads); err != nil {
			t.Fatalf("during the flush: %v", err)
		}
	}
	began := make(chan error, 1)
	go func() { began <- m.Begin() }()
	blocked("Begin", began)
	release()
	if err := await("Commit", committed); err != nil {
		t.Fatalf("parked Commit: %v", err)
	}
	if err := await("Begin", began); err != nil {
		t.Fatalf("Begin after the flush: %v", err)
	}
	if !readersProceed {
		if err := await("Read/Root/Stats", reads); err != nil {
			t.Fatalf("after the flush: %v", err)
		}
	}
	write(2)
	commit(t, m)

	// Round 2: Close against a parked commit.
	committed, release = park()
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	blocked("Close", closed)
	release()
	if err := await("Commit", committed); err != nil {
		t.Fatalf("parked Commit: %v", err)
	}
	if err := await("Close", closed); err != nil {
		t.Fatalf("Close after the flush: %v", err)
	}

	m = reopen()
	defer m.Close()
	if err := readAll(); err != nil {
		t.Fatalf("reopened store: %v", err)
	}
}
