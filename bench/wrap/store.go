package wrap

import (
	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// Store decorates a LabBase store: every entry point records one
// LayerLabbase span, and Snapshot hands out decorated snapshots whose hold
// (Snapshot() to Close()) is one LayerQuery span enclosing the LayerReader
// spans of the reads made through it.
//
// The wire server and the benchmark runner probe their store for optional
// capabilities (ConcurrentBatches, ShardInfo, Shards). The decorator exposes
// exactly the capabilities the decorated store has, so a traced server takes
// the same locks and answers the same handshake as an untraced one.
func Store(inner labbase.Store, rec *Recorder) labbase.Store {
	base := store{reader: reader{inner: inner, rec: rec, layer: LayerLabbase}, inner: inner}
	switch s := inner.(type) {
	case shardedStore:
		return &sharded{store: base, caps: s}
	case memberStore:
		return &member{store: base, caps: s}
	}
	return &base
}

type shardedStore interface {
	ConcurrentBatches() bool
	Shards() int
}

type memberStore interface {
	ShardInfo() (index, count int)
}

// sharded is the decorator for hash-partitioned stores (shard.DB,
// shard.Router).
type sharded struct {
	store
	caps shardedStore
}

func (s *sharded) ConcurrentBatches() bool { return s.caps.ConcurrentBatches() }
func (s *sharded) Shards() int             { return s.caps.Shards() }

// member is the decorator for one shard of a cluster (shard.Member).
type member struct {
	store
	caps memberStore
}

func (m *member) ShardInfo() (index, count int) { return m.caps.ShardInfo() }

// reader implements labbase.Reader over a store or a snapshot.
type reader struct {
	inner labbase.Reader
	rec   *Recorder
	layer Layer
}

func (r *reader) MaterialClasses() []string {
	defer r.rec.End(r.layer, OpMaterialClasses, r.rec.Start())
	return r.inner.MaterialClasses()
}

func (r *reader) StepClasses() []string {
	defer r.rec.End(r.layer, OpStepClasses, r.rec.Start())
	return r.inner.StepClasses()
}

func (r *reader) StepClassVersions(name string) ([][]string, error) {
	defer r.rec.End(r.layer, OpStepClassVersions, r.rec.Start())
	return r.inner.StepClassVersions(name)
}

func (r *reader) States() []string {
	defer r.rec.End(r.layer, OpStates, r.rec.Start())
	return r.inner.States()
}

func (r *reader) LookupMaterial(name string) (storage.OID, bool) {
	defer r.rec.End(r.layer, OpLookupMaterial, r.rec.Start())
	return r.inner.LookupMaterial(name)
}

func (r *reader) GetMaterial(oid storage.OID) (*labbase.Material, error) {
	defer r.rec.End(r.layer, OpGetMaterial, r.rec.Start())
	return r.inner.GetMaterial(oid)
}

func (r *reader) State(oid storage.OID) (string, error) {
	defer r.rec.End(r.layer, OpState, r.rec.Start())
	return r.inner.State(oid)
}

func (r *reader) MaterialsInState(state string) ([]storage.OID, error) {
	defer r.rec.End(r.layer, OpMaterialsInState, r.rec.Start())
	return r.inner.MaterialsInState(state)
}

func (r *reader) CountInState(state string) (uint64, error) {
	defer r.rec.End(r.layer, OpCountInState, r.rec.Start())
	return r.inner.CountInState(state)
}

func (r *reader) CountMaterials(class string) (uint64, error) {
	defer r.rec.End(r.layer, OpCountMaterials, r.rec.Start())
	return r.inner.CountMaterials(class)
}

func (r *reader) CountSteps(class string) (uint64, error) {
	defer r.rec.End(r.layer, OpCountSteps, r.rec.Start())
	return r.inner.CountSteps(class)
}

func (r *reader) ScanMaterials(class string, fn func(*labbase.Material) error) error {
	defer r.rec.End(r.layer, OpScanMaterials, r.rec.Start())
	return r.inner.ScanMaterials(class, fn)
}

func (r *reader) ScanAllMaterials(fn func(*labbase.Material) error) error {
	defer r.rec.End(r.layer, OpScanAllMaterials, r.rec.Start())
	return r.inner.ScanAllMaterials(fn)
}

func (r *reader) SetMembers(oid storage.OID) ([]storage.OID, error) {
	defer r.rec.End(r.layer, OpSetMembers, r.rec.Start())
	return r.inner.SetMembers(oid)
}

func (r *reader) GetStep(oid storage.OID) (*labbase.Step, error) {
	defer r.rec.End(r.layer, OpGetStep, r.rec.Start())
	return r.inner.GetStep(oid)
}

func (r *reader) ScanSteps(class string, fn func(*labbase.Step) error) error {
	defer r.rec.End(r.layer, OpScanSteps, r.rec.Start())
	return r.inner.ScanSteps(class, fn)
}

func (r *reader) History(oid storage.OID) ([]labbase.HistoryEntry, error) {
	defer r.rec.End(r.layer, OpHistory, r.rec.Start())
	return r.inner.History(oid)
}

func (r *reader) StepsInvolving(oid storage.OID) ([]storage.OID, error) {
	defer r.rec.End(r.layer, OpStepsInvolving, r.rec.Start())
	return r.inner.StepsInvolving(oid)
}

func (r *reader) MostRecent(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	defer r.rec.End(r.layer, OpMostRecent, r.rec.Start())
	return r.inner.MostRecent(oid, attr)
}

func (r *reader) MostRecentScan(oid storage.OID, attr string) (labbase.Value, storage.OID, bool, error) {
	defer r.rec.End(r.layer, OpMostRecentScan, r.rec.Start())
	return r.inner.MostRecentScan(oid, attr)
}

func (r *reader) MostRecentAsOf(oid storage.OID, attr string, t int64) (labbase.Value, storage.OID, bool, error) {
	defer r.rec.End(r.layer, OpMostRecentAsOf, r.rec.Start())
	return r.inner.MostRecentAsOf(oid, attr, t)
}

func (r *reader) AttrTimeline(oid storage.OID, attr string) ([]labbase.TimelineEntry, error) {
	defer r.rec.End(r.layer, OpAttrTimeline, r.rec.Start())
	return r.inner.AttrTimeline(oid, attr)
}

func (r *reader) Dump() (labbase.DumpStats, error) {
	defer r.rec.End(r.layer, OpDump, r.rec.Start())
	return r.inner.Dump()
}

// store adds the mutating half of labbase.Store.
type store struct {
	reader
	inner labbase.Store
}

func (s *store) InTxn() bool                         { return s.inner.InTxn() }
func (s *store) Close() error                        { return s.inner.Close() }
func (s *store) StoreStats() (string, storage.Stats) { return s.inner.StoreStats() }

func (s *store) Snapshot() (labbase.Snapshot, error) {
	start := s.rec.Start()
	snap, err := s.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return &snapshot{reader: reader{inner: snap, rec: s.rec, layer: LayerReader}, inner: snap, start: start}, nil
}

func (s *store) Begin() error {
	defer s.rec.End(LayerLabbase, OpBegin, s.rec.Start())
	return s.inner.Begin()
}

func (s *store) Commit() error {
	defer s.rec.End(LayerLabbase, OpCommit, s.rec.Start())
	return s.inner.Commit()
}

func (s *store) DefineMaterialClass(name, parent string) (labbase.ClassID, error) {
	defer s.rec.End(LayerLabbase, OpDefineMaterialClass, s.rec.Start())
	return s.inner.DefineMaterialClass(name, parent)
}

func (s *store) DefineAttr(name string, kind labbase.Kind) (labbase.AttrID, error) {
	defer s.rec.End(LayerLabbase, OpDefineAttr, s.rec.Start())
	return s.inner.DefineAttr(name, kind)
}

func (s *store) DefineStepClass(name string, attrs []labbase.AttrDef) (labbase.StepClassID, labbase.Version, error) {
	defer s.rec.End(LayerLabbase, OpDefineStepClass, s.rec.Start())
	return s.inner.DefineStepClass(name, attrs)
}

func (s *store) DefineState(name string) (labbase.StateID, error) {
	defer s.rec.End(LayerLabbase, OpDefineState, s.rec.Start())
	return s.inner.DefineState(name)
}

func (s *store) CreateMaterial(class, name, state string, validTime int64) (storage.OID, error) {
	defer s.rec.End(LayerLabbase, OpCreateMaterial, s.rec.Start())
	return s.inner.CreateMaterial(class, name, state, validTime)
}

func (s *store) SetState(oid storage.OID, state string) error {
	defer s.rec.End(LayerLabbase, OpSetState, s.rec.Start())
	return s.inner.SetState(oid, state)
}

func (s *store) CreateMaterialSet(members []storage.OID) (storage.OID, error) {
	defer s.rec.End(LayerLabbase, OpCreateMaterialSet, s.rec.Start())
	return s.inner.CreateMaterialSet(members)
}

func (s *store) RecordStep(spec labbase.StepSpec) (storage.OID, error) {
	defer s.rec.End(LayerLabbase, OpRecordStep, s.rec.Start())
	return s.inner.RecordStep(spec)
}

func (s *store) PutSteps(specs []labbase.StepSpec) ([]storage.OID, error) {
	defer s.rec.End(LayerLabbase, OpPutSteps, s.rec.Start())
	return s.inner.PutSteps(specs)
}

// snapshot is a held read view: its reads are LayerReader spans and its
// lifetime one LayerQuery span.
type snapshot struct {
	reader
	inner labbase.Snapshot
	start int64
}

func (s *snapshot) Close() error {
	err := s.inner.Close()
	s.rec.End(LayerQuery, OpQueryInterval, s.start)
	return err
}
