package labbase

import (
	"fmt"

	"labflow/internal/rec"
	"labflow/internal/storage"
)

// Material is the public view of an sm_material record.
type Material struct {
	OID        storage.OID
	Class      string
	Name       string
	State      string // "" when the material has no workflow state
	CreatedAt  int64  // valid time of creation
	HistoryLen int    // number of steps that have processed this material
}

// CreateMaterial inserts a new material of the given class. state may be ""
// (no workflow state) or a defined state name; validTime is the lab time the
// material came into existence. A non-empty name is the material's key and
// must be unique across the database.
func (db *DB) CreateMaterial(class, name, state string, validTime int64) (storage.OID, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.publishIfDirty()
	if err := db.requireTxn(); err != nil {
		return storage.NilOID, err
	}
	mc, ok := db.cat.byMCName[class]
	if !ok {
		return storage.NilOID, fmt.Errorf("%w: material class %q", ErrUnknownClass, class)
	}
	if name != "" {
		if _, dup := treapGet(db.nameRoot, name); dup {
			return storage.NilOID, fmt.Errorf("%w: %q", ErrDuplicateName, name)
		}
	}
	var stateID StateID
	if state != "" {
		stateID, ok = db.cat.byState[state]
		if !ok {
			return storage.NilOID, fmt.Errorf("%w: %q", ErrUnknownState, state)
		}
	}
	m := &materialRec{
		classID:   mc.ID,
		stateID:   stateID,
		createdAt: validTime,
		name:      name,
	}
	oid, err := db.allocMaterial(m)
	if err != nil {
		return storage.NilOID, fmt.Errorf("labbase: create material: %w", err)
	}
	// Creation marker: readers pinned to earlier epochs must not see the
	// new material even though its record now exists in storage.
	db.vers.save(oid, db.wEpoch, nil)
	if err := db.addToExtent(&mc.extentHead, db.cnt.matsByClass[mc.ID-1], oid); err != nil {
		return storage.NilOID, err
	}
	db.cnt.matsByClass[mc.ID-1]++
	if stateID != 0 {
		db.cnt.matsByState[stateID-1]++
		db.stateIdxAdd(stateID, oid)
	}
	if name != "" {
		db.nameRoot = treapPut(db.nameRoot, name, namePri(name), oid)
	}
	db.markCnt()
	return oid, nil
}

// LookupMaterial resolves a material by its name (the lab's natural key) —
// the LabFlow analog of TPC's "look up an account record given its key".
func (db *DB) LookupMaterial(name string) (storage.OID, bool) {
	s := db.acquire()
	defer s.Close()
	return s.LookupMaterial(name)
}

// LookupMaterial resolves a material name as of the snapshot.
func (s *Snap) LookupMaterial(name string) (storage.OID, bool) {
	return treapGet(s.st.nameRoot, name)
}

// GetMaterial returns the public view of a material.
func (db *DB) GetMaterial(oid storage.OID) (*Material, error) {
	s := db.acquire()
	defer s.Close()
	return s.GetMaterial(oid)
}

// GetMaterial returns the material's public view as of the snapshot.
func (s *Snap) GetMaterial(oid storage.OID) (*Material, error) {
	m, err := s.readMaterial(oid)
	if err != nil {
		return nil, err
	}
	cat := s.st.cat
	mc, err := cat.materialClass(m.classID)
	if err != nil {
		return nil, err
	}
	out := &Material{
		OID:        oid,
		Class:      mc.Name,
		Name:       m.name,
		CreatedAt:  m.createdAt,
		HistoryLen: int(m.historyCount),
	}
	if m.stateID != 0 {
		out.State, err = cat.stateName(m.stateID)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// State returns a material's workflow state ("" if none).
func (db *DB) State(oid storage.OID) (string, error) {
	s := db.acquire()
	defer s.Close()
	return s.State(oid)
}

// State returns the material's workflow state as of the snapshot.
func (s *Snap) State(oid storage.OID) (string, error) {
	m, err := s.readMaterial(oid)
	if err != nil {
		return "", err
	}
	if m.stateID == 0 {
		return "", nil
	}
	return s.st.cat.stateName(m.stateID)
}

// SetState moves a material to a new workflow state — the retract/assert
// pair of the paper's workflow-tracking updates. state may be "" to clear.
func (db *DB) SetState(oid storage.OID, state string) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.publishIfDirty()
	if err := db.requireTxn(); err != nil {
		return err
	}
	var stateID StateID
	if state != "" {
		var ok bool
		stateID, ok = db.cat.byState[state]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownState, state)
		}
	}
	m, err := db.readMaterial(oid)
	if err != nil {
		return err
	}
	if m.stateID == stateID {
		return nil
	}
	// Save the pre-image before any mutation: a reader that observes the
	// rewritten record always finds the version it should see instead.
	pre := *m
	db.vers.save(oid, db.wEpoch, &pre)
	if m.stateID != 0 {
		db.cnt.matsByState[m.stateID-1]--
		db.stateIdxRemove(m.stateID, oid)
	}
	m.stateID = stateID
	if stateID != 0 {
		db.cnt.matsByState[stateID-1]++
		db.stateIdxAdd(stateID, oid)
	}
	db.markCnt()
	return db.writeMaterial(oid, m)
}

// MaterialsInState returns the materials currently in the named state,
// sorted by OID for determinism.
func (db *DB) MaterialsInState(state string) ([]storage.OID, error) {
	s := db.acquire()
	defer s.Close()
	return s.MaterialsInState(state)
}

// MaterialsInState returns the state's members as of the snapshot.
func (s *Snap) MaterialsInState(state string) ([]storage.OID, error) {
	out := make([]storage.OID, 0, 16)
	err := s.ScanStateIndex(state, func(oid storage.OID) error {
		out = append(out, oid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanStateIndex walks one state's index (see IndexScanner).
func (db *DB) ScanStateIndex(state string, fn func(storage.OID) error) error {
	s := db.acquire()
	defer s.Close()
	return s.ScanStateIndex(state, fn)
}

// ScanStateIndex walks the state's members as of the snapshot, in OID
// order, stopping at the first error fn returns.
func (s *Snap) ScanStateIndex(state string, fn func(storage.OID) error) error {
	id, ok := s.st.cat.byState[state]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownState, state)
	}
	roots := s.st.stateRoots
	if int(id) > len(roots) {
		return nil
	}
	return treapAscend(roots[id-1], func(k uint64, _ struct{}) error {
		return fn(storage.OID(k))
	})
}

// CountInState returns the number of materials in the named state.
func (db *DB) CountInState(state string) (uint64, error) {
	s := db.acquire()
	defer s.Close()
	return s.CountInState(state)
}

// CountInState counts the state's members as of the snapshot.
func (s *Snap) CountInState(state string) (uint64, error) {
	id, ok := s.st.cat.byState[state]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownState, state)
	}
	return s.st.cnt.matsByState[id-1], nil
}

// CountMaterials counts the instances of a material class, including
// subclasses (is-a semantics).
func (db *DB) CountMaterials(class string) (uint64, error) {
	s := db.acquire()
	defer s.Close()
	return s.CountMaterials(class)
}

// CountMaterials counts a class's instances as of the snapshot.
func (s *Snap) CountMaterials(class string) (uint64, error) {
	cat := s.st.cat
	mc, ok := cat.byMCName[class]
	if !ok {
		return 0, fmt.Errorf("%w: material class %q", ErrUnknownClass, class)
	}
	cnt := s.st.cnt
	var total uint64
	for _, c := range cat.materialClasses {
		if cat.isSubclass(c.ID, mc.ID) {
			total += cnt.matsByClass[c.ID-1]
		}
	}
	return total, nil
}

// CountSteps counts the instances of a step class across all its versions.
func (db *DB) CountSteps(class string) (uint64, error) {
	s := db.acquire()
	defer s.Close()
	return s.CountSteps(class)
}

// CountSteps counts a step class's instances as of the snapshot.
func (s *Snap) CountSteps(class string) (uint64, error) {
	sc, ok := s.st.cat.bySCName[class]
	if !ok {
		return 0, fmt.Errorf("%w: step class %q", ErrUnknownClass, class)
	}
	return s.st.cnt.stepsByClass[sc.ID-1], nil
}

// ScanMaterials calls fn for each material of the class (subclasses
// included), in insertion order per class.
func (db *DB) ScanMaterials(class string, fn func(*Material) error) error {
	s := db.acquire()
	defer s.Close()
	return s.ScanMaterials(class, fn)
}

// ScanMaterials scans a class's instances as of the snapshot.
func (s *Snap) ScanMaterials(class string, fn func(*Material) error) error {
	cat := s.st.cat
	mc, ok := cat.byMCName[class]
	if !ok {
		return fmt.Errorf("%w: material class %q", ErrUnknownClass, class)
	}
	cnt := s.st.cnt
	for _, c := range cat.materialClasses {
		if !cat.isSubclass(c.ID, mc.ID) {
			continue
		}
		err := s.db.scanExtent(c.extentHead, cnt.matsByClass[c.ID-1], func(oid storage.OID) error {
			m, err := s.GetMaterial(oid)
			if err != nil {
				return err
			}
			return fn(m)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ScanClassExtent walks one class's own extent (see IndexScanner).
func (db *DB) ScanClassExtent(class string, fn func(storage.OID) error) error {
	s := db.acquire()
	defer s.Close()
	return s.ScanClassExtent(class, fn)
}

// ScanClassExtent walks the class's own extent as of the snapshot, in
// insertion order: OIDs only, no record decoded, no subclass visited.
func (s *Snap) ScanClassExtent(class string, fn func(storage.OID) error) error {
	mc, ok := s.st.cat.byMCName[class]
	if !ok {
		return fmt.Errorf("%w: material class %q", ErrUnknownClass, class)
	}
	return s.db.scanExtent(mc.extentHead, s.st.cnt.matsByClass[mc.ID-1], fn)
}

// ScanAllMaterials calls fn once for every material in the database,
// walking each concrete class's extent (no subclass double-counting).
func (db *DB) ScanAllMaterials(fn func(*Material) error) error {
	s := db.acquire()
	defer s.Close()
	return s.ScanAllMaterials(fn)
}

// ScanAllMaterials scans every material as of the snapshot.
func (s *Snap) ScanAllMaterials(fn func(*Material) error) error {
	cat := s.st.cat
	cnt := s.st.cnt
	for _, c := range cat.materialClasses {
		err := s.db.scanExtent(c.extentHead, cnt.matsByClass[c.ID-1], func(oid storage.OID) error {
			m, err := s.GetMaterial(oid)
			if err != nil {
				return err
			}
			return fn(m)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CreateMaterialSet stores a write-once material_set over the given members
// (each must be a live material) and returns its OID.
func (db *DB) CreateMaterialSet(members []storage.OID) (storage.OID, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.requireTxn(); err != nil {
		return storage.NilOID, err
	}
	for _, m := range members {
		if _, err := db.readMaterial(m); err != nil {
			return storage.NilOID, fmt.Errorf("labbase: set member %v: %w", m, err)
		}
	}
	e := rec.GetEncoder()
	encodeSetTo(e, members)
	oid, err := db.sm.Allocate(storage.SegHistory, e.Bytes())
	rec.PutEncoder(e)
	if err != nil {
		return storage.NilOID, fmt.Errorf("labbase: create set: %w", err)
	}
	// No publish: a set is write-once and reachable only through the OID
	// just returned, so no in-memory snapshot structure changes.
	return oid, nil
}

// SetMembers returns the members of a material_set.
func (db *DB) SetMembers(oid storage.OID) ([]storage.OID, error) {
	s := db.acquire()
	defer s.Close()
	return s.SetMembers(oid)
}

// SetMembers reads a material_set. Sets are write-once, so no snapshot
// correction is needed.
func (s *Snap) SetMembers(oid storage.OID) ([]storage.OID, error) {
	return s.db.setMembersLocked(oid)
}

func (db *DB) setMembersLocked(oid storage.OID) ([]storage.OID, error) {
	data, err := db.sm.Read(oid)
	if err != nil {
		return nil, err
	}
	return decodeSetRec(data)
}
