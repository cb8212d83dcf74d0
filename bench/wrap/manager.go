package wrap

import "labflow/internal/storage"

// Manager decorates a storage manager with one LayerStorage span per call.
func Manager(inner storage.Manager, rec *Recorder) storage.Manager {
	return &manager{inner: inner, rec: rec}
}

type manager struct {
	inner storage.Manager
	rec   *Recorder
}

func (m *manager) Name() string         { return m.inner.Name() }
func (m *manager) Stats() storage.Stats { return m.inner.Stats() }
func (m *manager) Close() error         { return m.inner.Close() }

func (m *manager) Allocate(seg storage.SegmentID, data []byte) (storage.OID, error) {
	defer m.rec.End(LayerStorage, OpAllocate, m.rec.Start())
	return m.inner.Allocate(seg, data)
}

func (m *manager) AllocateCluster(seg storage.SegmentID, data []byte) (storage.OID, error) {
	defer m.rec.End(LayerStorage, OpAllocateCluster, m.rec.Start())
	return m.inner.AllocateCluster(seg, data)
}

func (m *manager) AllocateNear(near storage.OID, data []byte) (storage.OID, error) {
	defer m.rec.End(LayerStorage, OpAllocateNear, m.rec.Start())
	return m.inner.AllocateNear(near, data)
}

func (m *manager) Read(oid storage.OID) ([]byte, error) {
	defer m.rec.End(LayerStorage, OpRead, m.rec.Start())
	return m.inner.Read(oid)
}

func (m *manager) Write(oid storage.OID, data []byte) error {
	defer m.rec.End(LayerStorage, OpWrite, m.rec.Start())
	return m.inner.Write(oid, data)
}

func (m *manager) Free(oid storage.OID) error {
	defer m.rec.End(LayerStorage, OpFree, m.rec.Start())
	return m.inner.Free(oid)
}

func (m *manager) Root() (storage.OID, error) {
	defer m.rec.End(LayerStorage, OpRoot, m.rec.Start())
	return m.inner.Root()
}

func (m *manager) SetRoot(oid storage.OID) error {
	defer m.rec.End(LayerStorage, OpSetRoot, m.rec.Start())
	return m.inner.SetRoot(oid)
}

func (m *manager) Begin() error {
	defer m.rec.End(LayerStorage, OpBegin, m.rec.Start())
	return m.inner.Begin()
}

func (m *manager) Commit() error {
	defer m.rec.End(LayerStorage, OpCommit, m.rec.Start())
	return m.inner.Commit()
}
