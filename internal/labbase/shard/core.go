package shard

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// writer is what a shard accepts inside a write bracket. A wire connection
// to the shard's server satisfies it as it is.
type writer interface {
	DefineMaterialClass(name, parent string) (labbase.ClassID, error)
	DefineAttr(name string, kind labbase.Kind) (labbase.AttrID, error)
	DefineStepClass(name string, attrs []labbase.AttrDef) (labbase.StepClassID, labbase.Version, error)
	DefineState(name string) (labbase.StateID, error)
	StepClassVersions(name string) ([][]string, error)
	CreateMaterial(class, name, state string, validTime int64) (storage.OID, error)
	SetState(oid storage.OID, state string) error
	CreateMaterialSet(members []storage.OID) (storage.OID, error)
	RecordStep(spec labbase.StepSpec) (storage.OID, error)
}

// member is everything the core asks of shard k. The one transport, remote
// (a shard server reached through a connection pool), implements it, and
// the core's tests script fakes of it. Errors come back as the shard's
// store produced them, byte for byte — remote strips the wire prefix — or
// wrap ErrShardDown, naming the shard, when it cannot be reached at all;
// adding "shard k:" is the core's job (reads.wrap).
type member interface {
	view

	// begin opens the shard's part of the broadcast write bracket and
	// commit closes it. A commit without a bracket still asks the shard,
	// so the error is the store's own.
	begin() error
	commit() error
	// mutate runs fn against the shard's open bracket. Without one it
	// fails with the store's own labbase.ErrNoTransaction.
	mutate(fn func(writer) error) error
	// alone runs fn inside a transaction of the shard's own — begin, fn,
	// commit — serialized against the shard's other own transactions. err
	// is begin's or fn's failure, commitErr the commit's.
	alone(fn func(writer) error) (err, commitErr error)

	// putSteps applies a batch on this shard alone with the store's own
	// PutSteps: inside the open bracket if there is one, else in one
	// transaction of its own. A failing entry comes back as a
	// *labbase.BatchError carrying its index in specs.
	putSteps(specs []labbase.StepSpec) ([]storage.OID, error)
	// batch readies the shard for one sub-batch of a PutSteps fan-out. It
	// fails fast, before anything has been sent to any shard, when the
	// shard cannot be reached.
	batch() (flight, error)

	// stats reports the shard's storage backend name and counters.
	stats() (string, storage.Stats, error)
}

// flight is one shard's sub-batch of a PutSteps fan-out, split in steps so
// the core can have every shard working before it waits for any: start
// begins applying specs as putSteps would, outside any bracket, and returns
// at once; wait returns putSteps' results. release gives back a flight that
// was never started.
type flight interface {
	start(specs []labbase.StepSpec)
	wait() ([]storage.OID, error)
	release()
}

// core is the labbase.Store the package implements, once, over N members:
// the reads (embedded), the broadcast write bracket, catalog broadcasts,
// routed mutations and the PutSteps fan-out. shard.Router is the core over
// remote members.
//
// Concurrency contract: it matches labbase.DB's — reads run in parallel,
// explicit Begin/Commit write brackets are single-writer and broadcast to
// every shard — with one extension: PutSteps called outside a bracket owns
// its per-shard transactions and may be invoked from many goroutines at
// once. Callers must not run explicit brackets concurrently with
// out-of-bracket PutSteps calls; the wire server guarantees this by holding
// its writer lock exclusively for every other mutation.
//
// Atomicity contract: per-shard transactions are atomic, cross-shard
// operations are not. A broadcast Commit is N independent durability
// points; a PutSteps batch is atomic per shard — each touched shard applies
// its entries in one transaction — and on failure the error names the first
// failing original batch index per shard, while entries on other shards
// commit regardless.
type core struct {
	reads
	members []member

	// stmu is the catalog-and-bracket lock: it serializes Begin/Commit,
	// the catalog broadcasts and the implicit step-schema ensure, and
	// guards inTxn and known. Ordered before every lock a member takes.
	stmu  sync.Mutex
	inTxn bool
	// known caches the (class, attr-multiset) shapes already broadcast, so
	// the hot PutSteps path skips the shard-0 catalog probe. Never
	// invalidated: schema is append-only.
	known map[string]struct{}
}

// newCore assembles a core over members, recording into metrics (nil for
// none).
func newCore(members []member, metrics *routerMetrics) *core {
	views := make([]view, len(members))
	for k, m := range members {
		views[k] = m
	}
	return &core{
		reads:   reads{views: views, metrics: metrics},
		members: members,
		known:   make(map[string]struct{}),
	}
}

// Shards returns the shard count.
func (c *core) Shards() int { return len(c.members) }

// ConcurrentBatches states the core's PutSteps rule: outside an explicit
// bracket, a batch is split by home shard and each touched shard applies
// its sub-batch in a transaction of its own, so PutSteps serializes its
// writes per shard itself. bench/wrap forwards it.
func (c *core) ConcurrentBatches() bool { return true }

// --- the broadcast write bracket --------------------------------------------

// Begin opens a write bracket on every shard, in shard order (the global
// lock order). If a shard refuses, the brackets already opened are
// committed — they are empty, so nothing is applied — rather than left
// open: an abandoned bracket would hold its shard's writer side against
// every later Begin.
func (c *core) Begin() error {
	c.stmu.Lock()
	defer c.stmu.Unlock()
	for k, m := range c.members {
		if err := m.begin(); err != nil {
			for _, opened := range c.members[:k] {
				opened.commit()
			}
			return c.wrap(k, err)
		}
	}
	c.inTxn = true
	return nil
}

// Commit commits every shard's bracket, in shard order. Shard commits are
// independent durability points: a crash between them leaves some shards
// committed and others not.
func (c *core) Commit() error {
	c.stmu.Lock()
	defer c.stmu.Unlock()
	var errs []error
	for k, m := range c.members {
		if err := m.commit(); err != nil {
			errs = append(errs, c.wrap(k, err))
		}
	}
	c.inTxn = false
	return errors.Join(errs...)
}

// InTxn reports whether the broadcast write bracket is open.
func (c *core) InTxn() bool {
	c.stmu.Lock()
	defer c.stmu.Unlock()
	return c.inTxn
}

// --- schema -----------------------------------------------------------------

// idVer pairs DefineStepClass's results for the broadcast ID check.
type idVer struct {
	id  labbase.StepClassID
	ver labbase.Version
}

// broadcastLocked runs a schema definition on every shard in shard order
// and checks that the shards return the same ID. Identical IDs are an
// invariant, not a hope: every shard starts from the same (empty) catalog
// and sees the same definitions in the same order under stmu, and ID
// allocation in labbase is deterministic in that order. The definition
// joins the open broadcast bracket, or, with own set, runs in a transaction
// of each shard's own. Caller holds stmu.
func broadcastLocked[T comparable](c *core, what, name string, own bool, def func(writer) (T, error)) (T, error) {
	var first T
	for k, m := range c.members {
		var got T
		run := func(w writer) (err error) { got, err = def(w); return err }
		var err error
		if own {
			var cerr error
			if err, cerr = m.alone(run); cerr != nil {
				return first, errors.Join(err, fmt.Errorf("shard %d: commit: %w", k, cerr))
			}
		} else {
			err = m.mutate(run)
		}
		if err != nil {
			return first, c.wrap(k, err)
		}
		if k == 0 {
			first = got
		} else if got != first {
			return first, fmt.Errorf("shard: catalog divergence: %s %q is %v on shard %d, %v on shard 0",
				what, name, got, k, first)
		}
	}
	return first, nil
}

// DefineMaterialClass broadcasts the definition to every shard.
func (c *core) DefineMaterialClass(name, parent string) (labbase.ClassID, error) {
	c.stmu.Lock()
	defer c.stmu.Unlock()
	return broadcastLocked(c, "material class", name, false, func(w writer) (labbase.ClassID, error) {
		return w.DefineMaterialClass(name, parent)
	})
}

// DefineAttr broadcasts the definition to every shard.
func (c *core) DefineAttr(name string, kind labbase.Kind) (labbase.AttrID, error) {
	c.stmu.Lock()
	defer c.stmu.Unlock()
	return broadcastLocked(c, "attribute", name, false, func(w writer) (labbase.AttrID, error) {
		return w.DefineAttr(name, kind)
	})
}

// DefineState broadcasts the definition to every shard.
func (c *core) DefineState(name string) (labbase.StateID, error) {
	c.stmu.Lock()
	defer c.stmu.Unlock()
	return broadcastLocked(c, "state", name, false, func(w writer) (labbase.StateID, error) {
		return w.DefineState(name)
	})
}

// DefineStepClass broadcasts the definition to every shard.
func (c *core) DefineStepClass(name string, attrs []labbase.AttrDef) (labbase.StepClassID, labbase.Version, error) {
	c.stmu.Lock()
	defer c.stmu.Unlock()
	got, err := c.defineStepClassLocked(name, attrs, false)
	return got.id, got.ver, err
}

func (c *core) defineStepClassLocked(name string, attrs []labbase.AttrDef, own bool) (idVer, error) {
	return broadcastLocked(c, "step class", name, own, func(w writer) (idVer, error) {
		id, ver, err := w.DefineStepClass(name, attrs)
		return idVer{id, ver}, err
	})
}

// ensureStepSchema pre-broadcasts the step classes, attributes and
// versions a batch would create implicitly, so implicit schema evolution
// cannot diverge the shards' catalogs (each shard would otherwise mint the
// new IDs only on a step's home shard). It reproduces exactly what
// labbase's implicit path would do: DefineStepClass with the spec's attr
// names, in spec order, duplicates included (the version key is the
// sorted attr-ID multiset), each attribute KindAny — the kind implicit
// evolution uses, compatible with any later typed definition. Inside the
// broadcast bracket the definitions join it; outside, each shard gets a
// short transaction of its own.
//
// No-op on a single shard (there is nothing to diverge from, preserving
// byte-identity with a plain store).
func (c *core) ensureStepSchema(specs []labbase.StepSpec) error {
	if len(c.members) == 1 {
		return nil
	}
	c.stmu.Lock()
	defer c.stmu.Unlock()
	for _, spec := range specs {
		key := schemaKey(spec)
		if _, ok := c.known[key]; ok {
			continue
		}
		// A failed probe means an unknown class: everything needs defining.
		if vers, err := c.versionsLocked(spec.Class); err != nil || !versionListed(vers, spec) {
			attrs := make([]labbase.AttrDef, len(spec.Attrs))
			for i, av := range spec.Attrs {
				attrs[i] = labbase.AttrDef{Name: av.Name, Kind: labbase.KindAny}
			}
			if _, err := c.defineStepClassLocked(spec.Class, attrs, !c.inTxn); err != nil {
				return err
			}
		}
		c.known[key] = struct{}{}
	}
	return nil
}

// versionsLocked reads a class's version list off shard 0, which stands
// for all shards — through the open bracket when there is one, so
// definitions made inside it are visible.
func (c *core) versionsLocked(class string) (vers [][]string, err error) {
	if c.inTxn {
		err = c.members[0].mutate(func(w writer) (err error) { vers, err = w.StepClassVersions(class); return err })
	} else {
		vers, err = c.StepClassVersions(class)
	}
	return vers, err
}

// schemaKey identifies a (class, attr-name multiset) schema shape.
func schemaKey(spec labbase.StepSpec) string {
	return spec.Class + "\x00" + strings.Join(attrNames(spec), "\x00")
}

// attrNames returns the spec's attribute names sorted, duplicates kept.
func attrNames(spec labbase.StepSpec) []string {
	names := make([]string, len(spec.Attrs))
	for i, av := range spec.Attrs {
		names[i] = av.Name
	}
	slices.Sort(names)
	return names
}

// versionListed reports whether one of a class's version attr-name lists
// matches the spec's attr-name multiset (attr names map 1:1 to attr IDs,
// so name-multiset equality is ID-multiset equality — the key labbase's
// own version lookup uses).
func versionListed(vers [][]string, spec labbase.StepSpec) bool {
	want := attrNames(spec)
	return slices.ContainsFunc(vers, func(v []string) bool {
		got := slices.Clone(v)
		slices.Sort(got)
		return slices.Equal(got, want)
	})
}

// --- routed mutations (all bracket-bound except PutSteps) -------------------

// CreateMaterial routes the material to its home shard by name hash.
func (c *core) CreateMaterial(class, name, state string, validTime int64) (oid storage.OID, err error) {
	err = c.members[ShardFor(name, len(c.members))].mutate(func(w writer) (err error) {
		oid, err = w.CreateMaterial(class, name, state, validTime)
		return err
	})
	return oid, err
}

// SetState routes by the material's OID.
func (c *core) SetState(oid storage.OID, state string) error {
	k, err := shardOfN(oid, len(c.members))
	if err != nil {
		return err
	}
	return c.members[k].mutate(func(w writer) error { return w.SetState(oid, state) })
}

// CreateMaterialSet creates the set on its members' shard. All members
// must co-reside (ErrCrossShard otherwise); an empty set goes to shard 0.
func (c *core) CreateMaterialSet(members []storage.OID) (oid storage.OID, err error) {
	home, err := setHomeIn(len(c.members), members)
	if err != nil {
		return storage.NilOID, err
	}
	err = c.members[home].mutate(func(w writer) (err error) { oid, err = w.CreateMaterialSet(members); return err })
	return oid, err
}

// setHomeIn finds a material set's home shard and enforces member
// co-residency.
func setHomeIn(n int, members []storage.OID) (int, error) {
	home := 0
	for i, m := range members {
		k, err := shardOfN(m, n)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			home = k
		} else if k != home {
			return 0, fmt.Errorf("%w: set members %v (shard %d) and %v (shard %d)",
				ErrCrossShard, members[0], home, m, k)
		}
	}
	return home, nil
}

// routeStepIn finds a step's home shard: the shard of its first material,
// or of its Set when it names no materials directly, and verifies every
// material co-resides there (the Set's members were already pinned to the
// Set's shard by CreateMaterialSet). A spec with neither materials nor set
// routes to shard 0 so labbase produces its own diagnostic.
func routeStepIn(n int, spec labbase.StepSpec) (int, error) {
	home, haveHome := 0, false
	if !spec.Set.IsNil() {
		k, err := shardOfN(spec.Set, n)
		if err != nil {
			return 0, err
		}
		home, haveHome = k, true
	}
	for _, m := range spec.Materials {
		k, err := shardOfN(m, n)
		if err != nil {
			return 0, err
		}
		if !haveHome {
			home, haveHome = k, true
		} else if k != home {
			return 0, fmt.Errorf("%w: step %q touches shard %d and shard %d",
				ErrCrossShard, spec.Class, home, k)
		}
	}
	return home, nil
}

// RecordStep routes the step to its home shard's bracket.
func (c *core) RecordStep(spec labbase.StepSpec) (oid storage.OID, err error) {
	home, err := routeStepIn(len(c.members), spec)
	if err != nil {
		return storage.NilOID, err
	}
	if err := c.ensureStepSchema([]labbase.StepSpec{spec}); err != nil {
		return storage.NilOID, err
	}
	err = c.members[home].mutate(func(w writer) (err error) { oid, err = w.RecordStep(spec); return err })
	return oid, err
}

// BatchError reports a PutSteps failure at a specific entry of a sharded
// batch: the failing shard committed the entries before Index it owned,
// other shards committed all of theirs, and nothing from Index on landed
// on shard Shard.
type BatchError struct {
	Index int   // position of the failing entry in the original batch
	Shard int   // shard whose sub-batch failed
	Err   error // the entry's own error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("shard: step batch entry %d (earlier entries on shard %d recorded, other shards unaffected): %v",
		e.Index, e.Shard, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// PutSteps applies a batch of steps with one transaction per touched
// shard, the per-shard sub-batches in flight together. The returned OIDs
// are stitched back into request order.
//
// Atomicity contract (the sharded refinement of labbase.DB.PutSteps'):
//   - Routing is pre-validated: a cross-shard or unroutable spec rejects
//     the whole batch before anything is applied, with the entry index.
//     So does a touched shard that cannot be reached.
//   - Each touched shard applies its entries in one transaction — atomic
//     per shard.
//   - Across shards the batch is non-atomic: a failure on one shard does
//     not roll back the others, and its error names the first failing
//     original batch index on that shard.
//
// Called inside a broadcast Begin/Commit bracket, the batch instead joins
// that transaction sequentially (no fan-out, no extra commits), matching
// labbase.DB.PutSteps. On one shard the store's own PutSteps does all of
// it, with the plain store's bytes.
func (c *core) PutSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	n := len(c.members)
	if n == 1 {
		return c.members[0].putSteps(specs)
	}
	oids := make([]storage.OID, len(specs))
	if c.InTxn() {
		for i, spec := range specs {
			oid, err := c.RecordStep(spec)
			if err != nil {
				return nil, fmt.Errorf("shard: step batch entry %d (earlier entries recorded): %w", i, err)
			}
			oids[i] = oid
		}
		return oids, nil
	}
	if err := c.ensureStepSchema(specs); err != nil {
		return nil, err
	}

	// Pre-validate and group by home shard; nothing has been applied yet,
	// so any routing failure rejects the whole batch.
	idxs := make([][]int, n)
	parts := make([][]labbase.StepSpec, n)
	for i, spec := range specs {
		home, err := routeStepIn(n, spec)
		if err != nil {
			return nil, fmt.Errorf("shard: step batch entry %d (batch rejected, nothing recorded): %w", i, err)
		}
		idxs[home] = append(idxs[home], i)
		parts[home] = append(parts[home], spec)
	}

	// Ready every touched shard before starting any: an unreachable shard
	// rejects the whole batch up front instead of surfacing after the
	// other shards already committed their sub-batches.
	flights := make([]flight, n)
	width := 0
	for k := range parts {
		if len(parts[k]) == 0 {
			continue
		}
		f, err := c.members[k].batch()
		if err != nil {
			for _, readied := range flights[:k] {
				if readied != nil {
					readied.release()
				}
			}
			return nil, c.wrap(k, err)
		}
		flights[k] = f
		width++
	}
	c.metrics.fanout(width)

	// Start every sub-batch before waiting for any, then collect in shard
	// order, stitching each shard's OIDs back into request order and
	// re-basing a failing sub-batch index onto the original batch position.
	for k, f := range flights {
		if f != nil {
			f.start(parts[k])
		}
	}
	var errs []error
	for k, f := range flights {
		if f == nil {
			continue
		}
		got, err := f.wait()
		if err == nil {
			for j, i := range idxs[k] {
				oids[i] = got[j]
			}
		} else if be, ok := err.(*labbase.BatchError); ok && be.Index >= 0 && be.Index < len(idxs[k]) {
			errs = append(errs, &BatchError{Index: idxs[k][be.Index], Shard: k, Err: be.Err})
		} else {
			errs = append(errs, c.wrap(k, err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return oids, nil
}

// StoreStats sums the shards' storage counters. The name is the backend's
// own for one shard (keeping 1-shard reports identical) and suffixed with
// the shard count otherwise. Stats are best-effort: an unreachable shard
// yields zeros and a name saying so, since the Store signature has no error
// to return.
func (c *core) StoreStats() (string, storage.Stats) {
	var (
		name  string
		total storage.Stats
	)
	for k, m := range c.members {
		shardName, st, err := m.stats()
		if err != nil {
			return "shard: unreachable", storage.Stats{}
		}
		if k == 0 {
			name = shardName
		}
		total = total.Add(st)
	}
	if len(c.members) > 1 {
		name = fmt.Sprintf("%s×%d", name, len(c.members))
	}
	return name, total
}
