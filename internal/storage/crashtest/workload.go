package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"labflow/internal/fault"
	"labflow/internal/fault/gate"
	"labflow/internal/storage"
)

// model is the shadow state the store is diffed against: the expected
// contents of every object ever allocated, in allocation order so every
// walk over it is deterministic.
type model struct {
	order []storage.OID          // every OID ever allocated, in order
	objs  map[storage.OID][]byte // live objects; absent = freed/never-lived
	root  storage.OID
}

func newModel() *model {
	return &model{objs: make(map[storage.OID][]byte)}
}

// clone returns a deep snapshot (taken at each successful commit).
func (m *model) clone() *model {
	c := &model{
		order: append([]storage.OID(nil), m.order...),
		objs:  make(map[storage.OID][]byte, len(m.objs)),
		root:  m.root,
	}
	for oid, data := range m.objs {
		c.objs[oid] = data // payloads are never mutated in place
	}
	return c
}

// diff checks that mgr holds exactly this model's state: every live object
// readable with identical bytes, every freed or never-committed OID
// invisible, and the root matching. A nil return means an exact match.
func (m *model) diff(mgr storage.Manager) error {
	for _, oid := range m.order {
		want, live := m.objs[oid]
		got, err := mgr.Read(oid)
		switch {
		case live && err != nil:
			return fmt.Errorf("object %v: expected %d bytes, got error %w", oid, len(want), err)
		case live && !bytes.Equal(got, want):
			return fmt.Errorf("object %v: %d bytes differ from expected %d bytes", oid, len(got), len(want))
		case !live && err == nil:
			return fmt.Errorf("object %v: expected invisible, read %d bytes", oid, len(got))
		case !live && !errors.Is(err, storage.ErrNoSuchObject):
			return fmt.Errorf("object %v: expected ErrNoSuchObject, got %w", oid, err)
		}
	}
	root, err := mgr.Root()
	if err != nil {
		return fmt.Errorf("root: %w", err)
	}
	if root != m.root {
		return fmt.Errorf("root = %v, want %v", root, m.root)
	}
	return nil
}

// workload drives a seeded transaction mix against a manager while
// maintaining the shadow models: committed (state as of the last
// acknowledged commit), pending (including the transaction being written)
// and inflight (the state each ended but unacknowledged transaction would
// leave, in seal order — what a crash may show instead of committed). The
// first manager error stops the run — under fault injection that is the
// process dying — and is returned together with the name of the failing
// call.
type workload struct {
	rng       *rand.Rand
	committed *model
	pending   *model
	inflight  []*model
	commits   int
	// window is WindowSealedBehindFlush when the crash landed in a flush
	// while a second transaction was sealed behind it.
	window string
}

func newWorkload(seed int64) *workload {
	return &workload{
		rng:       rand.New(rand.NewSource(seed)),
		committed: newModel(),
		pending:   newModel(),
	}
}

// payload draws a deterministic record: usually small, occasionally large
// enough to take the overflow path, and rarely wide enough (18 to 54
// pages) that its commit's redo record outgrows ostore's 16-page record
// buffer and reaches the log in several writes (WindowRecordChunk).
func (w *workload) payload() []byte {
	n := w.rng.Intn(400) + 8
	switch k := w.rng.Intn(64); {
	case k < 4:
		n = w.rng.Intn(12000) + 9000 // overflow record
	case k == 4:
		n = w.rng.Intn(300000) + 140000 // wide record
	}
	b := make([]byte, n)
	w.rng.Read(b)
	return b
}

// liveOID picks a deterministic live object from the pending model (nil OID
// if none).
func (w *workload) liveOID() storage.OID {
	live := make([]storage.OID, 0, len(w.pending.objs))
	for _, oid := range w.pending.order {
		if _, ok := w.pending.objs[oid]; ok {
			live = append(live, oid)
		}
	}
	if len(live) == 0 {
		return storage.NilOID
	}
	return live[w.rng.Intn(len(live))]
}

// run executes txns transactions of opsPerTxn operations each. With a gate
// wired into the store's log writes, a seeded share of the transactions run
// as two-committer pairs (see pair). On a manager error it returns the
// failing call's name and the error; a clean run returns ("", nil).
func (w *workload) run(m storage.Manager, g *gate.Gate, txns, opsPerTxn int) (string, error) {
	for t := 0; t < txns; t++ {
		if call, err := w.txn(m, opsPerTxn); err != nil {
			return call, err
		}
		if g != nil && t+1 < txns && w.rng.Intn(3) == 0 {
			if call, err := w.pair(m, g, opsPerTxn); err != nil {
				return call, err
			}
			t++
			continue
		}
		if call, err := w.commit(m); err != nil {
			return call, err
		}
	}
	return "", nil
}

// commit ends the transaction just written with a blocking Commit.
func (w *workload) commit(m storage.Manager) (string, error) {
	if err := m.Commit(); err != nil {
		w.inflight = append(w.inflight, w.pending)
		return "Commit", err
	}
	w.committed = w.pending.clone()
	w.commits++
	return "", nil
}

// pair ends the transaction just written as committer A and runs the next
// one as committer B behind it: A seals and waits for durability on a
// goroutine of its own; its flush is held at its log write while B begins,
// writes and seals; then A's flush goes on, and the two are acknowledged in
// seal order. A crash anywhere in A's flush thus lands with B sealed behind
// it (WindowSealedBehindFlush). A flush that settles without reaching the
// log write leaves nothing to hold, and B simply runs after it.
func (w *workload) pair(m storage.Manager, g *gate.Gate, opsPerTxn int) (string, error) {
	entered, release := g.Arm()
	durableA, err := storage.Seal(m)
	if err != nil {
		release()
		w.inflight = append(w.inflight, w.pending)
		return "Commit", err
	}
	w.inflight = append(w.inflight, w.pending.clone())
	doneA := make(chan error, 1)
	go func() { doneA <- durableA() }()
	select {
	case <-entered:
	case err := <-doneA:
		release()
		if err != nil {
			return "Commit", err
		}
		w.acknowledge()
		if call, err := w.txn(m, opsPerTxn); err != nil {
			return call, err
		}
		return w.commit(m)
	}

	callB, errB := w.txn(m, opsPerTxn)
	var durableB func() error
	if errB == nil {
		callB = "Commit"
		if durableB, errB = storage.Seal(m); errB == nil {
			w.inflight = append(w.inflight, w.pending.clone())
		}
	}
	release()
	if err := <-doneA; err != nil {
		if durableB != nil && errors.Is(err, fault.ErrCrashed) {
			w.window = WindowSealedBehindFlush
		}
		return "Commit", err
	}
	w.acknowledge()
	if errB != nil {
		return callB, errB
	}
	if err := durableB(); err != nil {
		return "Commit", err
	}
	w.acknowledge()
	return "", nil
}

// acknowledge records the oldest in-flight transaction as committed.
func (w *workload) acknowledge() {
	w.committed, w.inflight = w.inflight[0], w.inflight[1:]
	w.commits++
}

// txn begins a transaction and runs opsPerTxn seeded operations in it.
func (w *workload) txn(m storage.Manager, opsPerTxn int) (string, error) {
	segs := []storage.SegmentID{storage.SegCatalog, storage.SegMaterial, storage.SegIndex, storage.SegHistory}
	if err := m.Begin(); err != nil {
		return "Begin", err
	}
	for o := 0; o < opsPerTxn; o++ {
		switch k := w.rng.Intn(10); {
		case k < 5: // allocate
			seg := segs[w.rng.Intn(len(segs))]
			data := w.payload()
			oid, err := m.Allocate(seg, data)
			if err != nil {
				return "Allocate", err
			}
			w.pending.order = append(w.pending.order, oid)
			w.pending.objs[oid] = data
		case k < 8: // rewrite (may grow/shrink/relocate)
			oid := w.liveOID()
			if oid.IsNil() {
				continue
			}
			data := w.payload()
			if err := m.Write(oid, data); err != nil {
				return "Write", err
			}
			w.pending.objs[oid] = data
		case k < 9: // free
			oid := w.liveOID()
			if oid.IsNil() {
				continue
			}
			if err := m.Free(oid); err != nil {
				return "Free", err
			}
			delete(w.pending.objs, oid)
		default: // move the root
			oid := w.liveOID()
			if oid.IsNil() {
				continue
			}
			if err := m.SetRoot(oid); err != nil {
				return "SetRoot", err
			}
			w.pending.root = oid
		}
	}
	return "", nil
}

// matchesInflight reports whether mgr holds exactly the state some ended but
// unacknowledged transaction would leave.
func (w *workload) matchesInflight(mgr storage.Manager) bool {
	for _, m := range w.inflight {
		if m.diff(mgr) == nil {
			return true
		}
	}
	return false
}
