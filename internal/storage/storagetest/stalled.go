package storagetest

import (
	"bytes"
	"fmt"
	"labflow/internal/fault/gate"
	"testing"
	"time"

	"labflow/internal/storage"
)

// stallGrace is how long the driver waits before concluding that a call is
// blocked. Too short can only let a broken store pass, never fail a sound
// one.
const stallGrace = 30 * time.Millisecond

// Stall is what a manager promises while a commit is parked in its flush.
type Stall int

const (
	// Serialized: the pager holds its own lock across the flush (texas).
	// Reads, Begin and Close are only required to return once the flush
	// is released, and Begin and Close must not return before.
	Serialized Stall = iota
	// ReadersProceed: Read, Root and Stats return during the flush; Begin
	// and Close wait for it (a Store over a pager whose Commit flushes
	// before it returns).
	ReadersProceed
	// Pipelined: readers proceed, and so does the next writer — a second
	// transaction begins, writes and seals while the flush is in flight.
	// Its durable wait stays blocked until the parked commit is released,
	// the two return in seal order, and Close waits for both.
	Pipelined
)

// StalledCommit holds a Commit inside its flush (through gate, which the
// caller has wired into the manager's media) and checks who waits for it,
// per stall. Reads — of objects committed earlier and of the ones the
// parked transaction just wrote — Root and Stats must show the parked
// transaction's state whenever they return. The driver closes m; reopen
// then opens the same media afresh, and what it serves must equal the
// shadow of every committed write.
//
// Under Pipelined the gate is armed a second time while the first commit
// is parked, so that the second commit's flush parks in turn: the store's
// checkpoint interval must keep a checkpoint (whose sync would take that
// second arming) out of the first commit's flush.
func StalledCommit(t *testing.T, m storage.Manager, gate *gate.Gate, stall Stall, reopen func() storage.Manager) {
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
	// sealSecond begins, writes and seals a second transaction behind the
	// parked one, and returns a channel delivering its durable wait.
	sealSecond := func(began <-chan error) <-chan error {
		t.Helper()
		if err := await("Begin behind a parked commit", began); err != nil {
			t.Fatalf("Begin behind a parked commit: %v", err)
		}
		write(2)
		durable, err := storage.Seal(m)
		if err != nil {
			t.Fatalf("Seal behind a parked commit: %v", err)
		}
		waited := make(chan error, 1)
		go func() { waited <- durable() }()
		return waited
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
	if stall != Serialized {
		if err := await("Read/Root/Stats during the flush", reads); err != nil {
			t.Fatalf("during the flush: %v", err)
		}
	}
	began := make(chan error, 1)
	go func() { began <- m.Begin() }()
	if stall == Pipelined {
		second := sealSecond(began)
		if err := readAll(); err != nil {
			t.Fatalf("with two commits in flight: %v", err)
		}
		blocked("the second commit's durable wait", second)
		// Park the second commit's flush too, then let the first go: the
		// first must return while the second is still parked.
		entered2, release2 := gate.Arm()
		release()
		if err := await("Commit", committed); err != nil {
			t.Fatalf("parked Commit: %v", err)
		}
		if err := await("the second commit's flush", toErr(entered2)); err != nil {
			t.Fatal(err)
		}
		blocked("the second commit's durable wait", second)
		release2()
		if err := await("the second commit's durable wait", second); err != nil {
			t.Fatalf("second commit: %v", err)
		}
	} else {
		blocked("Begin", began)
		release()
		if err := await("Commit", committed); err != nil {
			t.Fatalf("parked Commit: %v", err)
		}
		if err := await("Begin", began); err != nil {
			t.Fatalf("Begin after the flush: %v", err)
		}
		if stall == Serialized {
			if err := await("Read/Root/Stats", reads); err != nil {
				t.Fatalf("after the flush: %v", err)
			}
		}
		write(2)
		commit(t, m)
	}

	// Round 2: Close against a parked commit (and, pipelined, against a
	// second one sealed behind it).
	committed, release = park()
	var second <-chan error
	if stall == Pipelined {
		began := make(chan error, 1)
		go func() { began <- m.Begin() }()
		second = sealSecond(began)
	}
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	blocked("Close", closed)
	release()
	if err := await("Commit", committed); err != nil {
		t.Fatalf("parked Commit: %v", err)
	}
	if second != nil {
		if err := await("the second commit's durable wait", second); err != nil {
			t.Fatalf("second commit: %v", err)
		}
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

// toErr turns a signal channel into a nil-error result channel for await.
func toErr(c <-chan struct{}) <-chan error {
	out := make(chan error, 1)
	go func() {
		<-c
		out <- nil
	}()
	return out
}
