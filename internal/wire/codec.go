package wire

import (
	"errors"
	"fmt"

	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
)

// The payload shapes several opcodes share, each with its encoder beside its
// decoder. The server's handlers, the client's synchronous methods and the
// pipeline's futures all go through these, so a layout is spelled once per
// direction. A decoder's bad argument is the error it reports when the
// leading count is out of range.

// oidReq, nameReq and attrReq are the three common request payloads: one
// object, one name, one attribute of one object.
func oidReq(oid storage.OID) []byte {
	e := rec.NewEncoder(16)
	e.Uint(uint64(oid))
	return e.Bytes()
}

func nameReq(name string) []byte {
	e := rec.NewEncoder(32)
	e.String(name)
	return e.Bytes()
}

func attrReq(oid storage.OID, attr string) []byte {
	e := rec.NewEncoder(32)
	e.Uint(uint64(oid))
	e.String(attr)
	return e.Bytes()
}

// decodeUint and decodeString read the two single-value replies.
func decodeUint(d *rec.Decoder) (uint64, error) { return d.Uint(), d.Err() }

func decodeString(d *rec.Decoder) (string, error) { return d.String(), d.Err() }

func encodeOIDs(e *rec.Encoder, oids []storage.OID) {
	e.Uint(uint64(len(oids)))
	for _, oid := range oids {
		e.Uint(uint64(oid))
	}
}

func decodeOIDs(d *rec.Decoder, max int, bad string) ([]storage.OID, error) {
	n := d.Count(max)
	if d.Err() != nil {
		return nil, errors.New(bad)
	}
	out := make([]storage.OID, n)
	for i := range out {
		out[i] = storage.OID(d.Uint())
	}
	return out, d.Err()
}

func encodeNames(e *rec.Encoder, names []string) {
	e.Uint(uint64(len(names)))
	for _, n := range names {
		e.String(n)
	}
}

func decodeNames(d *rec.Decoder, max int, bad string) ([]string, error) {
	n := d.Count(max)
	if d.Err() != nil {
		return nil, errors.New(bad)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out, d.Err()
}

// The value reply answers OpMostRecent and its Scan and AsOf variants.
func encodeValueReply(e *rec.Encoder, v labbase.Value, src storage.OID, found bool) {
	e.Bool(found)
	e.Uint(uint64(src))
	labbase.EncodeValue(e, v)
}

func decodeValueReply(d *rec.Decoder) (labbase.Value, storage.OID, bool, error) {
	found := d.Bool()
	src := storage.OID(d.Uint())
	v := labbase.DecodeValue(d)
	return v, src, found, d.Err()
}

func encodeHistory(e *rec.Encoder, hist []labbase.HistoryEntry) {
	e.Uint(uint64(len(hist)))
	for _, h := range hist {
		e.Uint(uint64(h.Step))
		e.Int(h.ValidTime)
	}
}

func decodeHistory(d *rec.Decoder) ([]labbase.HistoryEntry, error) {
	n := d.Count(1 << 24)
	if d.Err() != nil {
		return nil, errors.New("wire: bad history reply")
	}
	out := make([]labbase.HistoryEntry, n)
	for i := range out {
		out[i].Step = storage.OID(d.Uint())
		out[i].ValidTime = d.Int()
	}
	return out, d.Err()
}

// encodeMaterial writes one material in the layout shared by OpGetMaterial
// and the material scans.
func encodeMaterial(e *rec.Encoder, m *labbase.Material) {
	e.Uint(uint64(m.OID))
	e.String(m.Class)
	e.String(m.Name)
	e.String(m.State)
	e.Int(m.CreatedAt)
	e.Uint(uint64(m.HistoryLen))
}

func decodeMaterial(d *rec.Decoder) (*labbase.Material, error) {
	m := &labbase.Material{
		OID:       storage.OID(d.Uint()),
		Class:     d.String(),
		Name:      d.String(),
		State:     d.String(),
		CreatedAt: d.Int(),
	}
	m.HistoryLen = int(d.Uint())
	return m, d.Err()
}

// The involved tail — materials, set, attribute values — closes both a
// recorded step and a step spec.
func encodeInvolved(e *rec.Encoder, materials []storage.OID, set storage.OID, attrs []labbase.AttrValue) {
	encodeOIDs(e, materials)
	e.Uint(uint64(set))
	e.Uint(uint64(len(attrs)))
	for _, av := range attrs {
		e.String(av.Name)
		labbase.EncodeValue(e, av.Value)
	}
}

func decodeInvolved(d *rec.Decoder, badMaterials, badAttrs string) ([]storage.OID, storage.OID, []labbase.AttrValue, error) {
	nm := d.Count(1 << 20)
	if d.Err() != nil {
		return nil, storage.NilOID, nil, errors.New(badMaterials)
	}
	materials := make([]storage.OID, nm)
	for i := range materials {
		materials[i] = storage.OID(d.Uint())
	}
	set := storage.OID(d.Uint())
	na := d.Count(1 << 16)
	if d.Err() != nil {
		return nil, storage.NilOID, nil, errors.New(badAttrs)
	}
	attrs := make([]labbase.AttrValue, na)
	for i := range attrs {
		attrs[i].Name = d.String()
		attrs[i].Value = labbase.DecodeValue(d)
	}
	return materials, set, attrs, d.Err()
}

// encodeStep writes one step in the layout shared by OpGetStep and
// OpScanSteps.
func encodeStep(e *rec.Encoder, st *labbase.Step) {
	e.Uint(uint64(st.OID))
	e.String(st.Class)
	e.Uint(uint64(st.Version))
	e.Int(st.ValidTime)
	e.Int(st.TxnTime)
	encodeInvolved(e, st.Materials, st.Set, st.Attrs)
}

func decodeStep(d *rec.Decoder) (*labbase.Step, error) {
	st := &labbase.Step{
		OID:       storage.OID(d.Uint()),
		Class:     d.String(),
		Version:   labbase.Version(d.Uint()),
		ValidTime: d.Int(),
		TxnTime:   d.Int(),
	}
	var err error
	st.Materials, st.Set, st.Attrs, err = decodeInvolved(d, "wire: bad step reply", "wire: bad step attrs reply")
	if err != nil {
		return nil, err
	}
	return st, nil
}

// encodeStepSpec writes one step spec in the layout shared by OpRecordStep
// and OpPutSteps.
func encodeStepSpec(e *rec.Encoder, spec labbase.StepSpec) {
	e.String(spec.Class)
	e.Int(spec.ValidTime)
	encodeInvolved(e, spec.Materials, spec.Set, spec.Attrs)
}

// decodeStepSpec decodes one step spec without requiring the decoder to be
// exhausted, so specs can be concatenated in a batch frame.
func decodeStepSpec(d *rec.Decoder) (labbase.StepSpec, error) {
	spec := labbase.StepSpec{Class: d.String(), ValidTime: d.Int()}
	var err error
	spec.Materials, spec.Set, spec.Attrs, err = decodeInvolved(d, "wire: bad step spec", "wire: bad step spec attrs")
	return spec, err
}

// maxStepBatch bounds one OpPutSteps batch; MaxFrame already bounds the
// payload, this guards the count prefix itself.
const maxStepBatch = 1 << 16

func encodeStepBatch(specs []labbase.StepSpec) []byte {
	e := rec.NewEncoder(16 + 128*len(specs))
	e.Uint(uint64(len(specs)))
	for _, spec := range specs {
		encodeStepSpec(e, spec)
	}
	return e.Bytes()
}

func decodeStepBatch(d *rec.Decoder) ([]labbase.StepSpec, error) {
	n := d.Count(maxStepBatch)
	if d.Err() != nil {
		return nil, errors.New("wire: bad step batch count")
	}
	specs := make([]labbase.StepSpec, 0, n)
	for i := 0; i < n; i++ {
		spec, err := decodeStepSpec(d)
		if err != nil {
			return nil, fmt.Errorf("wire: step batch entry %d: %w", i, err)
		}
		specs = append(specs, spec)
	}
	return specs, d.Finish()
}

// decodeStepBatchReply reads the OIDs a batch of want specs recorded.
func decodeStepBatchReply(d *rec.Decoder, want int) ([]storage.OID, error) {
	const bad = "wire: bad step batch reply"
	oids, err := decodeOIDs(d, maxStepBatch, bad)
	if err == nil && len(oids) != want {
		err = errors.New(bad)
	}
	return oids, err
}

// statsFields lists a storage.Stats' counters in OpStats' wire order, for
// the server to encode from and the client to decode into.
func statsFields(st *storage.Stats) [9]*uint64 {
	return [9]*uint64{&st.Faults, &st.PageWrites, &st.Reads, &st.Writes, &st.Allocs,
		&st.LockWaits, &st.SizeBytes, &st.LiveObjects, &st.LiveBytes}
}
