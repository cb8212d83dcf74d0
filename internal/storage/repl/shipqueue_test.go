package repl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// fakeShipper records every Ship it accepts and fails the Ship of failLSN
// (0: none) without recording it.
type fakeShipper struct {
	lsns    []uint64
	records [][]byte
	failLSN uint64
}

func (f *fakeShipper) Ship(lsn uint64, record []byte) error {
	if lsn == f.failLSN {
		return fmt.Errorf("fake: ship %d refused", lsn)
	}
	f.lsns = append(f.lsns, lsn)
	f.records = append(f.records, bytes.Clone(record))
	return nil
}

// fakeStateShipper adds a follower state: the LSN it reports, or stateErr.
type fakeStateShipper struct {
	fakeShipper
	follower   uint64
	stateErr   error
	stateCalls int
}

func (f *fakeStateShipper) FollowerLSN() (uint64, error) {
	f.stateCalls++
	return f.follower, f.stateErr
}

// queued returns the LSNs still pending, in queue order.
func queued(q *ShipQueue) []uint64 {
	var lsns []uint64
	for _, pr := range q.pending {
		lsns = append(lsns, pr.lsn)
	}
	return lsns
}

// recordBytes is a distinct byte string per LSN, so a redelivery of the
// wrong bytes cannot pass for the right ones.
func recordBytes(lsn uint64) []byte {
	return EncodeRecord(lsn, []PageImage{{ID: 0, Data: page(byte(lsn))}})
}

func enqueue(q *ShipQueue, lsns ...uint64) {
	for _, lsn := range lsns {
		q.Add(lsn, recordBytes(lsn))
	}
}

func checkShipped(t *testing.T, f *fakeShipper, want ...uint64) {
	t.Helper()
	if fmt.Sprint(f.lsns) != fmt.Sprint(want) {
		t.Fatalf("shipped LSNs %v, want %v", f.lsns, want)
	}
	for i, lsn := range f.lsns {
		if !bytes.Equal(f.records[i], recordBytes(lsn)) {
			t.Fatalf("LSN %d shipped with bytes other than the ones queued", lsn)
		}
	}
}

func TestShipQueueZeroIsNoOp(t *testing.T) {
	var q ShipQueue
	s := &fakeStateShipper{stateErr: errors.New("must not be asked")}
	if err := q.Resolve(s); err != nil {
		t.Fatalf("Resolve on the zero queue: %v", err)
	}
	if len(s.lsns) != 0 || s.stateCalls != 0 {
		t.Fatalf("zero queue shipped %v and asked follower state %d times", s.lsns, s.stateCalls)
	}
}

func TestShipQueueRedeliversInOrder(t *testing.T) {
	var q ShipQueue
	enqueue(&q, 4, 5, 6)
	s := &fakeShipper{}
	if err := q.Resolve(s); err != nil {
		t.Fatal(err)
	}
	checkShipped(t, s, 4, 5, 6)
	if got := queued(&q); len(got) != 0 {
		t.Fatalf("queue after a clean Resolve: %v", got)
	}
	// Resolved means empty: a second Resolve ships nothing more.
	if err := q.Resolve(s); err != nil {
		t.Fatal(err)
	}
	checkShipped(t, s, 4, 5, 6)
}

func TestShipQueueRetiresWhatFollowerHolds(t *testing.T) {
	var q ShipQueue
	enqueue(&q, 4, 5, 6, 7)
	s := &fakeStateShipper{follower: 5}
	if err := q.Resolve(s); err != nil {
		t.Fatal(err)
	}
	checkShipped(t, &s.fakeShipper, 6, 7)

	// A follower past the whole queue: everything retires, nothing ships.
	var q2 ShipQueue
	enqueue(&q2, 8, 9)
	s2 := &fakeStateShipper{follower: 9}
	if err := q2.Resolve(s2); err != nil {
		t.Fatal(err)
	}
	checkShipped(t, &s2.fakeShipper)
	if got := queued(&q2); len(got) != 0 {
		t.Fatalf("queue after retiring everything: %v", got)
	}
}

func TestShipQueueFailureKeepsTail(t *testing.T) {
	t.Run("Ship", func(t *testing.T) {
		var q ShipQueue
		enqueue(&q, 4, 5, 6, 7)
		s := &fakeShipper{failLSN: 6}
		if err := q.Resolve(s); err == nil {
			t.Fatal("Resolve succeeded through a failed Ship")
		}
		checkShipped(t, s, 4, 5)
		if got := queued(&q); fmt.Sprint(got) != "[6 7]" {
			t.Fatalf("queue after failed Ship of 6: %v, want [6 7]", got)
		}
		s.failLSN = 0
		if err := q.Resolve(s); err != nil {
			t.Fatal(err)
		}
		checkShipped(t, s, 4, 5, 6, 7)
	})
	t.Run("FollowerLSN", func(t *testing.T) {
		var q ShipQueue
		enqueue(&q, 4, 5, 6)
		s := &fakeStateShipper{follower: 5, stateErr: errors.New("fake: state lost")}
		if err := q.Resolve(s); err == nil {
			t.Fatal("Resolve succeeded without the follower's state")
		}
		checkShipped(t, &s.fakeShipper)
		if got := queued(&q); fmt.Sprint(got) != "[4 5 6]" {
			t.Fatalf("queue after failed FollowerLSN: %v, want [4 5 6]", got)
		}
		s.stateErr = nil
		if err := q.Resolve(s); err != nil {
			t.Fatal(err)
		}
		checkShipped(t, &s.fakeShipper, 6)
	})
	t.Run("ShipAfterRetire", func(t *testing.T) {
		var q ShipQueue
		enqueue(&q, 4, 5, 6, 7)
		s := &fakeStateShipper{follower: 4}
		s.failLSN = 6
		if err := q.Resolve(s); err == nil {
			t.Fatal("Resolve succeeded through a failed Ship")
		}
		checkShipped(t, &s.fakeShipper, 5)
		if got := queued(&q); fmt.Sprint(got) != "[6 7]" {
			t.Fatalf("queue after retire then failed Ship of 6: %v, want [6 7]", got)
		}
	})
}
