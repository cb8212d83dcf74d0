package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

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
// maintaining two shadow models: committed (state as of the last successful
// Commit) and pending (including the in-flight transaction). The first
// manager error stops the run — under fault injection that is the process
// dying — and is returned together with the name of the failing call.
type workload struct {
	rng       *rand.Rand
	committed *model
	pending   *model
	commits   int
}

func newWorkload(seed int64) *workload {
	return &workload{
		rng:       rand.New(rand.NewSource(seed)),
		committed: newModel(),
		pending:   newModel(),
	}
}

// payload draws a deterministic record: usually small, occasionally large
// enough to take the overflow path.
func (w *workload) payload() []byte {
	n := w.rng.Intn(400) + 8
	if w.rng.Intn(16) == 0 {
		n = w.rng.Intn(12000) + 9000 // overflow record
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

// run executes txns transactions of opsPerTxn operations each. On a manager
// error it returns the failing call's name and the error; a clean run
// returns ("", nil).
func (w *workload) run(m storage.Manager, txns, opsPerTxn int) (string, error) {
	segs := []storage.SegmentID{storage.SegCatalog, storage.SegMaterial, storage.SegIndex, storage.SegHistory}
	for t := 0; t < txns; t++ {
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
		if err := m.Commit(); err != nil {
			return "Commit", err
		}
		w.committed = w.pending.clone()
		w.commits++
	}
	return "", nil
}
