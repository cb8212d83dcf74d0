package wire

import (
	"errors"
	"fmt"
	"slices"

	"labflow/internal/datalog"
	"labflow/internal/labbase"
	"labflow/internal/rec"
	"labflow/internal/storage"
)

// The payload layouts, each an encoder beside its decoder. An opcode's
// descriptor (protocol.go) names one layout for its request and one for its
// reply; the server's generic arm, the client's calls and the pipeline's
// futures all go through them, so a layout is spelled once per direction.
// A decoder reports the first error it meets and leaves the trailing-bytes
// check to its caller; a list's bad text is the error its count reports
// when it is out of range.

// codec is one payload layout.
type codec[T any] struct {
	enc func(*rec.Encoder, T)
	dec func(*rec.Decoder) (T, error)
}

// none is the empty payload.
type none struct{}

var noneC = codec[none]{
	func(*rec.Encoder, none) {},
	func(*rec.Decoder) (none, error) { return none{}, nil },
}

// uintC is one unsigned integer: a count, an LSN, an OID or a catalog ID.
func uintC[T ~uint32 | ~uint64]() codec[T] {
	return codec[T]{
		func(e *rec.Encoder, v T) { e.Uint(uint64(v)) },
		func(d *rec.Decoder) (T, error) { return T(d.Uint()), d.Err() },
	}
}

var (
	u64C = uintC[uint64]()
	oidC = uintC[storage.OID]()
)

var stringC = codec[string]{
	(*rec.Encoder).String,
	func(d *rec.Decoder) (string, error) { return d.String(), d.Err() },
}

// rawC is a payload taken whole, not rec-framed: OpShipRecord's redo record.
var rawC = codec[[]byte]{(*rec.Encoder).Raw, func(d *rec.Decoder) ([]byte, error) { return d.Rest(), nil }}

// listOf is a counted list of item; a count above max decodes as bad.
func listOf[T any](item codec[T], max int, bad string) codec[[]T] {
	return codec[[]T]{
		func(e *rec.Encoder, v []T) {
			e.Uint(uint64(len(v)))
			for _, x := range v {
				item.enc(e, x)
			}
		},
		func(d *rec.Decoder) ([]T, error) {
			n := d.Count(max)
			if d.Err() != nil {
				return nil, errors.New(bad)
			}
			out := make([]T, n)
			for i := range out {
				var err error
				if out[i], err = item.dec(d); err != nil {
					return nil, err
				}
			}
			return out, d.Err()
		},
	}
}

// oidsC is an OID list: a reply's, and CreateMaterialSet's members.
func oidsC(max int, bad string) codec[[]storage.OID] { return listOf(oidC, max, bad) }

// catalogC is a catalog listing's reply; versionsC, StepClassVersions',
// one name list per version.
var (
	catalogC  = listOf(stringC, 1<<20, "wire: bad name list reply")
	versionsC = listOf(listOf(stringC, 1<<16, "wire: bad version list reply"), 1<<20, "wire: bad version list reply")
)

// attrQ is one attribute of one object: MostRecent's, AttrTimeline's and
// SetState's request (the attribute there being the new state).
type attrQ struct {
	oid  storage.OID
	attr string
}

var attrC = codec[attrQ]{
	func(e *rec.Encoder, q attrQ) {
		e.Uint(uint64(q.oid))
		e.String(q.attr)
	},
	func(d *rec.Decoder) (attrQ, error) { return attrQ{storage.OID(d.Uint()), d.String()}, d.Err() },
}

// asOfQ is MostRecentAsOf's request: an attribute as of a valid time.
type asOfQ struct {
	attrQ
	t int64
}

var asOfC = codec[asOfQ]{
	func(e *rec.Encoder, q asOfQ) {
		attrC.enc(e, q.attrQ)
		e.Int(q.t)
	},
	func(d *rec.Decoder) (asOfQ, error) {
		q, _ := attrC.dec(d) // its error is the decoder's, reported below
		return asOfQ{q, d.Int()}, d.Err()
	},
}

// Recent is the value reply of MostRecent and its Scan and AsOf variants:
// the value, the step that recorded it, and whether there was one.
type Recent struct {
	Value labbase.Value
	Src   storage.OID
	Found bool
}

var recentC = codec[Recent]{
	func(e *rec.Encoder, r Recent) {
		e.Bool(r.Found)
		e.Uint(uint64(r.Src))
		labbase.EncodeValue(e, r.Value)
	},
	func(d *rec.Decoder) (Recent, error) {
		found := d.Bool()
		src := storage.OID(d.Uint())
		return Recent{labbase.DecodeValue(d), src, found}, d.Err()
	},
}

// classQ is DefineMaterialClass's request.
type classQ struct{ name, parent string }

var classC = codec[classQ]{
	func(e *rec.Encoder, q classQ) {
		e.String(q.name)
		e.String(q.parent)
	},
	func(d *rec.Decoder) (classQ, error) { return classQ{d.String(), d.String()}, d.Err() },
}

// attrDefC is one attribute definition: DefineAttr's request, and each of
// a step class's.
var attrDefC = codec[labbase.AttrDef]{
	func(e *rec.Encoder, a labbase.AttrDef) {
		e.String(a.Name)
		e.Byte(byte(a.Kind))
	},
	func(d *rec.Decoder) (labbase.AttrDef, error) {
		return labbase.AttrDef{Name: d.String(), Kind: labbase.Kind(d.Byte())}, d.Err()
	},
}

// stepClassQ is DefineStepClass's request.
type stepClassQ struct {
	name  string
	attrs []labbase.AttrDef
}

var attrDefsC = listOf(attrDefC, 1<<16, "wire: bad attribute count")

var stepClassC = codec[stepClassQ]{
	func(e *rec.Encoder, q stepClassQ) {
		e.String(q.name)
		attrDefsC.enc(e, q.attrs)
	},
	func(d *rec.Decoder) (stepClassQ, error) {
		name := d.String() // a truncated name fails the count below
		attrs, err := attrDefsC.dec(d)
		return stepClassQ{name, attrs}, err
	},
}

// stepClassR is DefineStepClass's reply.
type stepClassR struct {
	id  labbase.StepClassID
	ver labbase.Version
}

var stepClassRC = codec[stepClassR]{
	func(e *rec.Encoder, r stepClassR) {
		e.Uint(uint64(r.id))
		e.Uint(uint64(r.ver))
	},
	func(d *rec.Decoder) (stepClassR, error) {
		return stepClassR{labbase.StepClassID(d.Uint()), labbase.Version(d.Uint())}, d.Err()
	},
}

// materialQ is CreateMaterial's request.
type materialQ struct {
	class, name, state string
	validTime          int64
}

var materialQC = codec[materialQ]{
	func(e *rec.Encoder, q materialQ) {
		e.String(q.class)
		e.String(q.name)
		e.String(q.state)
		e.Int(q.validTime)
	},
	func(d *rec.Decoder) (materialQ, error) {
		return materialQ{d.String(), d.String(), d.String(), d.Int()}, d.Err()
	},
}

// lookupR is LookupMaterial's reply.
type lookupR struct {
	oid   storage.OID
	found bool
}

var lookupC = codec[lookupR]{
	func(e *rec.Encoder, r lookupR) {
		e.Bool(r.found)
		e.Uint(uint64(r.oid))
	},
	func(d *rec.Decoder) (lookupR, error) {
		found := d.Bool()
		return lookupR{storage.OID(d.Uint()), found}, d.Err()
	},
}

var historyC = listOf(codec[labbase.HistoryEntry]{
	func(e *rec.Encoder, h labbase.HistoryEntry) {
		e.Uint(uint64(h.Step))
		e.Int(h.ValidTime)
	},
	func(d *rec.Decoder) (labbase.HistoryEntry, error) {
		return labbase.HistoryEntry{Step: storage.OID(d.Uint()), ValidTime: d.Int()}, d.Err()
	},
}, 1<<24, "wire: bad history reply")

var timelineC = listOf(codec[labbase.TimelineEntry]{
	func(e *rec.Encoder, te labbase.TimelineEntry) {
		e.Int(te.ValidTime)
		e.Uint(uint64(te.Step))
		labbase.EncodeValue(e, te.Value)
	},
	func(d *rec.Decoder) (labbase.TimelineEntry, error) {
		return labbase.TimelineEntry{ValidTime: d.Int(), Step: storage.OID(d.Uint()), Value: labbase.DecodeValue(d)}, d.Err()
	},
}, 1<<24, "wire: bad timeline reply")

// materialC is one material, OpGetMaterial's reply and each of a material
// scan's.
var materialC = codec[*labbase.Material]{
	func(e *rec.Encoder, m *labbase.Material) {
		e.Uint(uint64(m.OID))
		e.String(m.Class)
		e.String(m.Name)
		e.String(m.State)
		e.Int(m.CreatedAt)
		e.Uint(uint64(m.HistoryLen))
	},
	func(d *rec.Decoder) (*labbase.Material, error) {
		m := &labbase.Material{
			OID:       storage.OID(d.Uint()),
			Class:     d.String(),
			Name:      d.String(),
			State:     d.String(),
			CreatedAt: d.Int(),
		}
		m.HistoryLen = int(d.Uint())
		return m, d.Err()
	},
}

var materialsC = listOf(materialC, 1<<24, "wire: bad material scan reply")

// The involved tail — materials, set, attribute values — closes both a
// recorded step and a step spec.
func encodeInvolved(e *rec.Encoder, materials []storage.OID, set storage.OID, attrs []labbase.AttrValue) {
	e.Uint(uint64(len(materials)))
	for _, oid := range materials {
		e.Uint(uint64(oid))
	}
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

// stepC is one recorded step, OpGetStep's reply and each of OpScanSteps'.
var stepC = codec[*labbase.Step]{
	func(e *rec.Encoder, st *labbase.Step) {
		e.Uint(uint64(st.OID))
		e.String(st.Class)
		e.Uint(uint64(st.Version))
		e.Int(st.ValidTime)
		e.Int(st.TxnTime)
		encodeInvolved(e, st.Materials, st.Set, st.Attrs)
	},
	func(d *rec.Decoder) (*labbase.Step, error) {
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
	},
}

var stepsC = listOf(stepC, 1<<24, "wire: bad step scan reply")

// stepSpecC is one step spec, OpRecordStep's request and each of
// OpPutSteps'.
var stepSpecC = codec[labbase.StepSpec]{
	func(e *rec.Encoder, spec labbase.StepSpec) {
		e.String(spec.Class)
		e.Int(spec.ValidTime)
		encodeInvolved(e, spec.Materials, spec.Set, spec.Attrs)
	},
	func(d *rec.Decoder) (labbase.StepSpec, error) {
		spec := labbase.StepSpec{Class: d.String(), ValidTime: d.Int()}
		var err error
		spec.Materials, spec.Set, spec.Attrs, err = decodeInvolved(d, "wire: bad step spec", "wire: bad step spec attrs")
		return spec, err
	},
}

// maxStepBatch bounds one OpPutSteps batch; MaxFrame already bounds the
// payload, this guards the count prefix itself.
const maxStepBatch = 1 << 16

// stepBatchC is OpPutSteps' request; an entry that fails to decode is
// named by its index.
var stepBatchC = codec[[]labbase.StepSpec]{
	func(e *rec.Encoder, specs []labbase.StepSpec) {
		e.Uint(uint64(len(specs)))
		for _, spec := range specs {
			stepSpecC.enc(e, spec)
		}
	},
	func(d *rec.Decoder) ([]labbase.StepSpec, error) {
		n := d.Count(maxStepBatch)
		if d.Err() != nil {
			return nil, errors.New("wire: bad step batch count")
		}
		specs := make([]labbase.StepSpec, 0, n)
		for i := 0; i < n; i++ {
			spec, err := stepSpecC.dec(d)
			if err != nil {
				return nil, fmt.Errorf("wire: step batch entry %d: %w", i, err)
			}
			specs = append(specs, spec)
		}
		return specs, nil
	},
}

// queryQ is OpQuery's request: the query text and the most solutions
// wanted (0 = all).
type queryQ struct {
	text string
	max  int
}

var queryC = codec[queryQ]{
	func(e *rec.Encoder, q queryQ) {
		e.String(q.text)
		e.Uint(uint64(q.max))
	},
	func(d *rec.Decoder) (queryQ, error) { return queryQ{d.String(), int(d.Uint())}, d.Err() },
}

// oneOIDPerSpec vets OpPutSteps' reply against its request.
func oneOIDPerSpec(specs []labbase.StepSpec, oids []storage.OID) error {
	if len(oids) != len(specs) {
		return errors.New("wire: bad step batch reply")
	}
	return nil
}

// answers is OpQuery's reply: each solution's bindings in variable order,
// a binding being the variable's name and its term's text. The server
// encodes the engine's solutions (sols) as they come; the client decodes
// the text (text).
type answers struct {
	sols []datalog.Solution
	text []map[string]string
}

var answersC = codec[answers]{
	func(e *rec.Encoder, a answers) {
		e.Uint(uint64(len(a.sols)))
		for _, sol := range a.sols {
			e.Uint(uint64(len(sol)))
			names := make([]string, 0, len(sol))
			for name := range sol {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				e.String(name)
				e.String(sol[name].String())
			}
		}
	},
	func(d *rec.Decoder) (answers, error) {
		const bad = "wire: bad query reply"
		n := d.Count(1 << 24)
		if d.Err() != nil {
			return answers{}, errors.New(bad)
		}
		out := make([]map[string]string, n)
		for i := range out {
			nv := d.Count(1 << 16)
			if d.Err() != nil {
				return answers{}, errors.New(bad)
			}
			sol := make(map[string]string, nv)
			for j := 0; j < nv; j++ {
				name := d.String()
				sol[name] = d.String()
			}
			out[i] = sol
		}
		return answers{text: out}, d.Err()
	},
}

var dumpC = codec[labbase.DumpStats]{
	func(e *rec.Encoder, st labbase.DumpStats) {
		e.Uint(st.Materials)
		e.Uint(st.Steps)
		e.Uint(st.AttrValues)
		e.Uint(st.HistoryRead)
	},
	func(d *rec.Decoder) (labbase.DumpStats, error) {
		return labbase.DumpStats{Materials: d.Uint(), Steps: d.Uint(), AttrValues: d.Uint(), HistoryRead: d.Uint()}, d.Err()
	},
}

// statsR is OpStats' reply: the storage manager's name and counters.
type statsR struct {
	name string
	st   storage.Stats
}

// statsFields lists a storage.Stats' counters in OpStats' wire order.
func statsFields(st *storage.Stats) [9]*uint64 {
	return [9]*uint64{&st.Faults, &st.PageWrites, &st.Reads, &st.Writes, &st.Allocs,
		&st.LockWaits, &st.SizeBytes, &st.LiveObjects, &st.LiveBytes}
}

var statsC = codec[statsR]{
	func(e *rec.Encoder, r statsR) {
		e.String(r.name)
		for _, f := range statsFields(&r.st) {
			e.Uint(*f)
		}
	},
	func(d *rec.Decoder) (statsR, error) {
		r := statsR{name: d.String()}
		for _, f := range statsFields(&r.st) {
			*f = d.Uint()
		}
		return r, d.Err()
	},
}

// shardInfoR is OpShardInfo's reply: the shard a server holds, and its
// storage-backend name.
type shardInfoR struct {
	index, count int
	store        string
}

var shardInfoC = codec[shardInfoR]{
	func(e *rec.Encoder, r shardInfoR) {
		e.Uint(uint64(r.index))
		e.Uint(uint64(r.count))
		e.String(r.store)
	},
	func(d *rec.Decoder) (shardInfoR, error) {
		return shardInfoR{int(d.Uint()), int(d.Uint()), d.String()}, d.Err()
	},
}

// replStateR is OpReplState's reply: the role (0 = primary, 1 = standby)
// and a standby's last applied LSN.
type replStateR struct {
	role    int
	lastLSN uint64
}

var replStateC = codec[replStateR]{
	func(e *rec.Encoder, r replStateR) {
		e.Uint(uint64(r.role))
		e.Uint(r.lastLSN)
	},
	func(d *rec.Decoder) (replStateR, error) { return replStateR{int(d.Uint()), d.Uint()}, d.Err() },
}

// helloR is the hello reply: the server's protocol version and its banner.
type helloR struct {
	version uint64
	banner  string
}

var helloC = codec[helloR]{
	func(e *rec.Encoder, r helloR) {
		e.Uint(r.version)
		e.String(r.banner)
	},
	func(d *rec.Decoder) (helloR, error) { return helloR{d.Uint(), d.String()}, d.Err() },
}
