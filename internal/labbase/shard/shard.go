package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// ErrCrossShard is returned when a step or material set references
// materials living on different shards. Sharded LabBase transactions are
// single-partition (as in d-Chiron): everything one step touches — its
// materials and the members of its Set — must hash to the same shard.
//
// The sentinel itself lives in labbase (see labbase.ErrCrossShard for why);
// this is the same error value, so errors.Is matches either name.
var ErrCrossShard = labbase.ErrCrossShard

// DB is the core over N labbase.DB instances in this process, one storage
// manager each. Materials are routed to shard ShardFor(name, N); each shard
// has its own storage manager and its own lock domain, so writes to
// different shards proceed fully in parallel. See core for the concurrency
// and atomicity contracts.
//
// Every cross-shard read first pins one snapshot per shard — up front,
// before any data is read — so the answer reflects a set of per-shard op
// boundaries fixed at call time rather than states that drift while the
// shards are visited one by one. Single-shard routed reads go straight to
// the owning shard, whose own read entry points capture a snapshot
// internally.
type DB struct {
	*core
	locals locals
}

var _ labbase.Store = (*DB)(nil)

// ShardFor routes a material name to a shard with FNV-1a (32-bit). The
// routing is part of the on-disk contract: the same name must hash to the
// same shard across restarts.
func ShardFor(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// Open builds a sharded DB over one storage manager per shard, all opened
// with the same labbase options. Open takes ownership of the managers: on
// error every manager is closed. A 1-shard DB is byte-identical to a plain
// labbase.DB over the same manager (shard 0's OID encoding is the
// identity, and the implicit-schema broadcast is skipped).
func Open(managers []storage.Manager, opts labbase.Options) (*DB, error) {
	n := len(managers)
	if n < 1 || n > MaxShards {
		for _, sm := range managers {
			sm.Close()
		}
		return nil, fmt.Errorf("shard: shard count %d outside [1, %d]", n, MaxShards)
	}
	ls := make(locals, n)
	members := make([]member, n)
	for k, sm := range managers {
		inner, err := labbase.Open(&mapper{inner: sm, shard: k}, opts)
		if err != nil {
			for _, opened := range ls[:k] {
				opened.db.Close()
			}
			for _, rest := range managers[k:] {
				rest.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		ls[k] = &local{db: inner}
		members[k] = ls[k]
	}
	db := &DB{core: newCore(members), locals: ls}
	db.gather, db.streams = ls.gather, true
	db.strict = !opts.ImplicitVersions || !opts.ImplicitAttrs
	return db, nil
}

// Shard exposes shard k's inner DB for tests and recovery tooling.
func (db *DB) Shard(k int) *labbase.DB { return db.locals[k].db }

// Close closes every shard.
func (db *DB) Close() error {
	var errs []error
	for k, m := range db.locals {
		if err := m.db.Close(); err != nil {
			errs = append(errs, db.wrap(k, err))
		}
	}
	return errors.Join(errs...)
}

// --- the local transport ----------------------------------------------------

// local is shard k as a member: the shard's labbase.DB is reader and
// writer both, and its own Begin/Commit are the bracket.
type local struct {
	db *labbase.DB
	// wmu serializes the shard's own transactions (PutSteps sub-batches
	// and out-of-bracket schema broadcasts) around each Begin/Commit
	// pair. Taken under core.stmu by the broadcasts, never across shards.
	wmu sync.Mutex
}

func (m *local) open() (labbase.Reader, error)          { return m.db, nil }
func (m *local) done(_ labbase.Reader, err error) error { return err }
func (m *local) begin() error                           { return m.db.Begin() }
func (m *local) commit() error                          { return m.db.Commit() }
func (m *local) mutate(fn func(writer) error) error     { return fn(m.db) }

func (m *local) alone(fn func(writer) error) (err, commitErr error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := m.db.Begin(); err != nil {
		return err, nil
	}
	err = fn(m.db)
	return err, m.db.Commit()
}

func (m *local) putSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.db.PutSteps(specs)
}

func (m *local) stats() (string, storage.Stats, error) {
	name, st := m.db.StoreStats()
	return name, st, nil
}

// localFlight applies its sub-batch on a goroutine of its own.
type localFlight struct {
	m    *local
	done chan struct{}
	oids []storage.OID
	err  error
}

func (m *local) batch() (flight, error) { return &localFlight{m: m, done: make(chan struct{})}, nil }

func (f *localFlight) start(specs []labbase.StepSpec) {
	go func() {
		defer close(f.done)
		f.oids, f.err = f.m.putSteps(specs)
	}()
}

func (f *localFlight) wait() ([]storage.OID, error) {
	<-f.done
	return f.oids, f.err
}

func (f *localFlight) release() {}

// locals is the local transport's shard list.
type locals []*local

// pinned is one shard's captured snapshot as a view.
type pinned struct{ labbase.Snapshot }

func (p pinned) open() (labbase.Reader, error)          { return p.Snapshot, nil }
func (p pinned) done(_ labbase.Reader, err error) error { return err }

// shardSnap is a cross-shard snapshot: one labbase snapshot per shard, all
// captured up front (in shard order) before any data is read, and the
// package's reads over them. Because every shard-local snapshot sits at one
// of that shard's op boundaries, a cross-shard read through a shardSnap
// never observes a torn mid-operation state on any shard, and repeated
// reads through the same handle are mutually consistent — the capture does
// not drift between the first and last shard visited the way a
// shard-by-shard walk over live state can.
type shardSnap struct {
	reads
	snaps []labbase.Snapshot
}

var _ labbase.Snapshot = (*shardSnap)(nil)

// pin captures one snapshot per shard, in shard order, before anything is
// read. On failure it releases what it captured and names the failing
// shard.
func (ls locals) pin() (*shardSnap, int, error) {
	snaps := make([]labbase.Snapshot, len(ls))
	views := make([]view, len(ls))
	for k, m := range ls {
		s, err := m.db.Snapshot()
		if err != nil {
			for _, prev := range snaps[:k] {
				prev.Close()
			}
			return nil, k, err
		}
		snaps[k], views[k] = s, pinned{s}
	}
	return &shardSnap{reads{views: views, gather: inOrder(views), streams: true}, snaps}, 0, nil
}

// gather is the local transport's: pin every shard, then visit the pins
// one at a time in shard order.
func (ls locals) gather(fn visit) []error {
	s, k, err := ls.pin()
	if err != nil {
		errs := make([]error, len(ls))
		errs[k] = err
		return errs
	}
	defer s.Close()
	return s.gather(fn)
}

// Snapshot captures one snapshot per shard, in shard order, before reading
// anything. The handle must be Closed.
func (db *DB) Snapshot() (labbase.Snapshot, error) {
	s, k, err := db.locals.pin()
	if err != nil {
		return nil, db.wrap(k, err)
	}
	return s, nil
}

// Close releases every shard's capture.
func (s *shardSnap) Close() error {
	var errs []error
	for k, snap := range s.snaps {
		if err := snap.Close(); err != nil {
			errs = append(errs, s.wrap(k, err))
		}
	}
	return errors.Join(errs...)
}
