package labbase

import (
	"fmt"
	"slices"

	"labflow/internal/rec"
	"labflow/internal/storage"
)

// AttrValue is one named attribute value on a step.
type AttrValue struct {
	Name  string
	Value Value
}

// StepSpec describes a workflow step to record. The step's result attributes
// determine (and, when no version has that attribute set, create) the
// step-class version the instance is bound to.
type StepSpec struct {
	// Class is the step class name; recording a step of an unseen class
	// defines it.
	Class string
	// ValidTime is the lab time the step happened. Steps may be recorded
	// out of order; most-recent semantics follow this field, not insertion
	// order.
	ValidTime int64
	// Materials are the individual materials the step processed.
	Materials []storage.OID
	// Set optionally names a material_set; its members are processed too
	// (batched steps such as gel runs).
	Set storage.OID
	// Attrs are the step's result attributes, in recording order.
	Attrs []AttrValue
}

// Step is the public view of an sm_step record.
type Step struct {
	OID       storage.OID
	Class     string
	Version   Version
	ValidTime int64
	TxnTime   int64
	Materials []storage.OID
	Set       storage.OID
	Attrs     []AttrValue
}

// RecordStep inserts a workflow event: the core update of the benchmark's
// workflow tracking. It appends the step to the event history of every
// material it involves and maintains their most-recent indexes.
//
// Placement mirrors the LabBase clustering policy: the step record and the
// history chunks that point at it are allocated near the involved material's
// existing history, so one material's audit trail stays physically together
// when the storage manager honours clustering (Texas+TC, OStore).
func (db *DB) RecordStep(spec StepSpec) (storage.OID, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	defer db.publishIfDirty()
	return db.recordStepLocked(spec)
}

func (db *DB) recordStepLocked(spec StepSpec) (storage.OID, error) {
	if err := db.requireTxn(); err != nil {
		return storage.NilOID, err
	}
	sc, ok := db.cat.bySCName[spec.Class]
	if !ok {
		// Recording a step of an unseen class defines the class (its first
		// version comes from the attribute set below) — schema evolution by
		// use.
		if spec.Class == "" {
			return storage.NilOID, fmt.Errorf("labbase: empty step class name")
		}
		sc = db.newStepClassLocked(spec.Class)
	}

	// Resolve attributes, defining unknown ones (with KindAny).
	attrIDs := make([]AttrID, len(spec.Attrs))
	attrVals := make([]Value, len(spec.Attrs))
	for i, av := range spec.Attrs {
		id, ok := db.cat.byAttrName[av.Name]
		if !ok {
			var err error
			id, err = db.defineAttrLocked(av.Name, KindAny)
			if err != nil {
				return storage.NilOID, err
			}
		}
		def := db.cat.attrs[id-1]
		if !av.Value.matches(def.Kind) {
			return storage.NilOID, fmt.Errorf("%w: attribute %q takes %v, got %v",
				ErrKindMismatch, av.Name, def.Kind, av.Value.Kind)
		}
		attrIDs[i] = id
		attrVals[i] = av.Value
	}

	// Resolve the step-class version by attribute set (schema evolution).
	key := attrKey(attrIDs)
	ver, ok := sc.byAttrKey[key]
	if !ok {
		var err error
		ver, err = db.stepVersionLocked(sc, attrIDs)
		if err != nil {
			return storage.NilOID, err
		}
	}

	// Collect the involved materials: explicit ones plus set members.
	targets := make([]storage.OID, 0, len(spec.Materials))
	targets = append(targets, spec.Materials...)
	if !spec.Set.IsNil() {
		members, err := db.setMembersLocked(spec.Set)
		if err != nil {
			return storage.NilOID, fmt.Errorf("labbase: step set: %w", err)
		}
		targets = append(targets, members...)
	}
	if len(targets) == 0 {
		return storage.NilOID, fmt.Errorf("labbase: step %q involves no materials", spec.Class)
	}
	mats := make([]*materialRec, len(targets))
	for i, m := range targets {
		if j := slices.Index(targets[:i], m); j >= 0 {
			mats[i] = mats[j] // a repeated target appends to the record it updated
			continue
		}
		mr, err := db.readMaterial(m)
		if err != nil {
			return storage.NilOID, fmt.Errorf("labbase: step material %v: %w", m, err)
		}
		mats[i] = mr
		// Save the pre-image before any mutation below rewrites the record;
		// the version table keeps the first save per epoch, so a duplicate
		// target (or a target also touched earlier in this epoch) is fine.
		pre := *mr
		db.vers.save(m, db.wEpoch, &pre)
	}

	// Store the step record near the first material's existing history.
	s := &stepRec{
		classID:   sc.ID,
		version:   ver,
		validTime: spec.ValidTime,
		txnTime:   db.nextTxnTime(),
		materials: spec.Materials,
		set:       spec.Set,
		attrIDs:   attrIDs,
		attrVals:  attrVals,
	}
	enc := rec.GetEncoder()
	s.encodeTo(enc)
	var stepOID storage.OID
	var err error
	if anchor := mats[0].historyHead; !anchor.IsNil() {
		stepOID, err = db.sm.AllocateNear(anchor, enc.Bytes())
	} else {
		// A history-less first material starts a fresh physical cluster;
		// the whole family's audit trail (its spawned materials anchor
		// their first chunks here too) then funnels into it.
		stepOID, err = db.sm.AllocateCluster(storage.SegHistory, enc.Bytes())
	}
	rec.PutEncoder(enc)
	if err != nil {
		return storage.NilOID, fmt.Errorf("labbase: store step: %w", err)
	}

	// Thread the step into each material's history, most-recent index and
	// the reverse involves index. A material's first history chunk is
	// clustered with the step record it references, seeding the material's
	// neighbourhood in the history segment.
	entry := HistoryEntry{Step: stepOID, ValidTime: spec.ValidTime}
	var eb [historyEntrySize]byte
	putHistoryEntry(&eb, entry)
	for i, moid := range targets {
		if err := db.add(&historyChain, &mats[i].historyHead, mats[i].historyCount, stepOID, eb[:]); err != nil {
			return storage.NilOID, err
		}
		if err := db.updateMostRecent(moid, mats[i], attrIDs, entry); err != nil {
			return storage.NilOID, err
		}
		mats[i].historyCount++
		if err := db.writeMaterial(moid, mats[i]); err != nil {
			return storage.NilOID, fmt.Errorf("labbase: update material %v: %w", moid, err)
		}
		old, _ := treapGet(db.invRoot, uint64(moid))
		db.invRoot = treapPut(db.invRoot, uint64(moid), oidPri(uint64(moid)),
			&invList{step: stepOID, next: old, n: old.length() + 1})
	}

	if err := db.addToExtent(&sc.extentHead, db.cnt.stepsByClass[sc.ID-1], stepOID); err != nil {
		return storage.NilOID, err
	}
	db.cnt.stepsByClass[sc.ID-1]++
	db.markCnt()
	return stepOID, nil
}

// PutSteps records a batch of steps. Called outside a transaction it opens
// one of its own, amortizing the commit (and, under group-commit stores, the
// log flush) across the batch; inside a caller's transaction it records into
// that. The batch is not atomic: if entry i fails, entries 0..i-1 have
// already been recorded and stay recorded — the error names the failing
// index so the caller can tell.
func (db *DB) PutSteps(specs []StepSpec) ([]storage.OID, error) {
	oids := make([]storage.OID, len(specs))
	own := !db.InTxn()
	if own {
		if err := db.Begin(); err != nil {
			return nil, err
		}
	}
	for i, spec := range specs {
		oid, err := db.RecordStep(spec)
		if err != nil {
			err = error(&BatchError{Index: i, Err: err})
			if own {
				if cerr := db.Commit(); cerr != nil {
					return nil, fmt.Errorf("%w (and closing the transaction: %w)", err, cerr)
				}
			}
			return nil, err
		}
		oids[i] = oid
	}
	if own {
		if err := db.Commit(); err != nil {
			return nil, err
		}
	}
	return oids, nil
}

// updateMostRecent folds the step's attributes into the material's
// most-recent index, honouring valid-time order for out-of-order arrivals.
// The index bytes are served from the decode cache when present; the entry
// is dropped before the mutation and re-installed only after the write
// succeeds, so the cache never holds unpersisted bytes. Cached bytes are
// never mutated in place: lock-free readers may hold the cached slice, so
// the mutation works on a private copy and the original becomes the
// version-table pre-image.
func (db *DB) updateMostRecent(moid storage.OID, m *materialRec, attrs []AttrID, e HistoryEntry) error {
	if len(attrs) == 0 && !m.mrIndex.IsNil() {
		return nil
	}
	var data []byte
	var pre []byte // unmutated bytes for snapshot readers; nil for a fresh index
	var err error
	if m.mrIndex.IsNil() {
		data = newMRIndex(mrInitialCap)
		oid, err := db.sm.Allocate(storage.SegIndex, data)
		if err != nil {
			return fmt.Errorf("labbase: most-recent index: %w", err)
		}
		m.mrIndex = oid
		// No pre-image: readers pinned to earlier epochs see the material
		// record's pre-image, whose mrIndex is still nil.
	} else if cached, ok := db.mrCache.get(m.mrIndex); ok {
		pre = cached
		data = append([]byte(nil), cached...)
	} else {
		data, err = db.sm.Read(m.mrIndex)
		if err != nil {
			return fmt.Errorf("labbase: read most-recent index: %w", err)
		}
		if err := checkMRIndex(data); err != nil {
			return err
		}
		pre = append([]byte(nil), data...)
	}
	db.mrCache.invalidate(m.mrIndex)
	changed := false
	for _, a := range attrs {
		var c bool
		data, c = mrUpsert(data, mrEntry{attr: a, validTime: e.ValidTime, step: e.Step})
		changed = changed || c
	}
	if !changed {
		db.mrCache.put(m.mrIndex, data)
		return nil
	}
	if pre != nil {
		// Strictly before the overwrite: a reader that sees post-image bytes
		// must already find the pre-image in the version table.
		db.vers.save(m.mrIndex, db.wEpoch, pre)
	}
	if err := db.sm.Write(m.mrIndex, data); err != nil {
		return err
	}
	db.mrCache.put(m.mrIndex, data)
	return nil
}

// GetStep returns the public view of a step instance.
func (db *DB) GetStep(oid storage.OID) (*Step, error) {
	s := db.acquire()
	defer s.Close()
	return s.GetStep(oid)
}

// GetStep returns the step's public view. Steps are immutable once written,
// so only the catalog lookup is snapshot-dependent.
func (s *Snap) GetStep(oid storage.OID) (*Step, error) {
	data, err := s.db.sm.Read(oid)
	if err != nil {
		return nil, err
	}
	sr, err := decodeStepRec(data)
	if err != nil {
		return nil, err
	}
	cat := s.st.cat
	sc, err := cat.stepClass(sr.classID)
	if err != nil {
		return nil, err
	}
	out := &Step{
		OID:       oid,
		Class:     sc.Name,
		Version:   sr.version,
		ValidTime: sr.validTime,
		TxnTime:   sr.txnTime,
		Materials: sr.materials,
		Set:       sr.set,
	}
	out.Attrs = make([]AttrValue, len(sr.attrIDs))
	for i, a := range sr.attrIDs {
		def, err := cat.attr(a)
		if err != nil {
			return nil, err
		}
		out.Attrs[i] = AttrValue{Name: def.Name, Value: sr.attrVals[i]}
	}
	return out, nil
}

// Attr returns the named attribute's value from a step view.
func (s *Step) Attr(name string) (Value, bool) {
	for _, av := range s.Attrs {
		if av.Name == name {
			return av.Value, true
		}
	}
	return Nil(), false
}

// ScanSteps calls fn for each instance of a step class, in insertion order.
func (db *DB) ScanSteps(class string, fn func(*Step) error) error {
	s := db.acquire()
	defer s.Close()
	return s.ScanSteps(class, fn)
}

// ScanSteps scans a step class's instances as of the snapshot.
func (s *Snap) ScanSteps(class string, fn func(*Step) error) error {
	cat := s.st.cat
	sc, ok := cat.bySCName[class]
	if !ok {
		return fmt.Errorf("%w: step class %q", ErrUnknownClass, class)
	}
	return s.db.scanExtent(sc.extentHead, s.st.cnt.stepsByClass[sc.ID-1], func(oid storage.OID) error {
		st, err := s.GetStep(oid)
		if err != nil {
			return err
		}
		return fn(st)
	})
}
