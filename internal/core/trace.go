package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"labflow/internal/labbase"
	"labflow/internal/storage"
	"labflow/internal/workflow"
)

// The trace format makes the benchmark workload portable: lfgen writes the
// exact event stream (one JSON object per line) that the simulator would
// apply to a database, and ReplayTrace applies a stream to any LabBase
// database — so the same workload can drive other systems, or be archived
// with published results.

// TraceValue is a kind-tagged attribute value (JSON numbers alone cannot
// round-trip int64 vs float64).
type TraceValue struct {
	Kind  string       `json:"kind"` // nil | int | float | string | bool | oid | list
	Int   int64        `json:"int,omitempty"`
	Float float64      `json:"float,omitempty"`
	Str   string       `json:"str,omitempty"`
	Bool  bool         `json:"bool,omitempty"`
	OID   uint64       `json:"oid,omitempty"` // trace-local id
	List  []TraceValue `json:"list,omitempty"`
}

// TraceAttr is one named attribute on a step event.
type TraceAttr struct {
	Name  string     `json:"name"`
	Value TraceValue `json:"value"`
}

// TraceEvent is one workload event. Kinds:
//
//	material  create a material (ID is its trace-local id)
//	set       create a material set over Materials
//	step      record a workflow step
//	state     move a material to State
type TraceEvent struct {
	Kind      string      `json:"kind"`
	ID        uint64      `json:"id,omitempty"`
	Class     string      `json:"class,omitempty"`
	Name      string      `json:"name,omitempty"`
	State     string      `json:"state,omitempty"`
	ValidTime int64       `json:"valid_time,omitempty"`
	Materials []uint64    `json:"materials,omitempty"`
	Set       uint64      `json:"set,omitempty"`
	Attrs     []TraceAttr `json:"attrs,omitempty"`
}

func toTraceValue(v labbase.Value) TraceValue {
	switch v.Kind {
	case labbase.KindInt:
		return TraceValue{Kind: "int", Int: v.Int}
	case labbase.KindFloat:
		return TraceValue{Kind: "float", Float: v.Float}
	case labbase.KindString:
		return TraceValue{Kind: "string", Str: v.Str}
	case labbase.KindBool:
		return TraceValue{Kind: "bool", Bool: v.Int != 0}
	case labbase.KindOID:
		return TraceValue{Kind: "oid", OID: uint64(v.OID)}
	case labbase.KindList:
		out := TraceValue{Kind: "list", List: make([]TraceValue, len(v.List))}
		for i, e := range v.List {
			out.List[i] = toTraceValue(e)
		}
		return out
	default:
		return TraceValue{Kind: "nil"}
	}
}

func fromTraceValue(v TraceValue) (labbase.Value, error) {
	switch v.Kind {
	case "nil":
		return labbase.Nil(), nil
	case "int":
		return labbase.Int64(v.Int), nil
	case "float":
		return labbase.Float64(v.Float), nil
	case "string":
		return labbase.String(v.Str), nil
	case "bool":
		return labbase.Bool(v.Bool), nil
	case "oid":
		return labbase.Ref(storage.OID(v.OID)), nil
	case "list":
		out := make([]labbase.Value, len(v.List))
		for i, e := range v.List {
			var err error
			out[i], err = fromTraceValue(e)
			if err != nil {
				return labbase.Nil(), err
			}
		}
		return labbase.ListOf(out...), nil
	default:
		return labbase.Nil(), fmt.Errorf("core: unknown trace value kind %q", v.Kind)
	}
}

// TraceTracker implements workflow.Tracker by writing the event stream
// instead of applying it, keeping just enough in-memory state (the state
// index) for the simulator to run.
type TraceTracker struct {
	w     io.Writer
	line  []byte      // the event being written, reused
	attrs []TraceAttr // RecordStep's attributes, reused
	next  uint64

	// The state index. members holds each state's materials, unordered;
	// by dense trace id, stateOf[id] is 1 + the index of id's state in
	// members (0 for none) and slot[id] is id's position in its list.
	stateIdx map[string]int32
	members  [][]uint64
	stateOf  []int32
	slot     []int32

	// Events counts emitted events.
	Events uint64
}

// NewTraceTracker writes events to w as JSON lines.
func NewTraceTracker(w io.Writer) *TraceTracker {
	return &TraceTracker{w: w, stateIdx: make(map[string]int32)}
}

func (t *TraceTracker) emit(ev *TraceEvent) error {
	t.Events++
	line, err := ev.appendLine(t.line[:0])
	if err != nil {
		return err
	}
	t.line = line
	_, err = t.w.Write(line)
	return err
}

// CreateMaterial implements workflow.Tracker.
func (t *TraceTracker) CreateMaterial(class, name, state string, validTime int64) (workflow.ID, error) {
	t.next++
	id := t.next
	if err := t.emit(&TraceEvent{Kind: "material", ID: id, Class: class, Name: name, State: state, ValidTime: validTime}); err != nil {
		return storage.NilOID, err
	}
	if state != "" {
		t.setState(id, state)
	}
	return storage.MakeOID(storage.SegMaterial, id), nil
}

// CreateMaterialSet implements workflow.Tracker.
func (t *TraceTracker) CreateMaterialSet(members []workflow.ID) (workflow.ID, error) {
	t.next++
	id := t.next
	if err := t.emit(&TraceEvent{Kind: "set", ID: id, Materials: traceIDs(members)}); err != nil {
		return storage.NilOID, err
	}
	return storage.MakeOID(storage.SegHistory, id), nil
}

// RecordStep implements workflow.Tracker.
func (t *TraceTracker) RecordStep(spec labbase.StepSpec) (workflow.ID, error) {
	t.next++
	id := t.next
	ev := TraceEvent{
		Kind: "step", ID: id, Class: spec.Class, ValidTime: spec.ValidTime,
		Materials: traceIDs(spec.Materials), Set: uint64(spec.Set.Index()),
	}
	if spec.Set.IsNil() {
		ev.Set = 0
	}
	t.attrs = t.attrs[:0]
	for _, av := range spec.Attrs {
		t.attrs = append(t.attrs, TraceAttr{Name: av.Name, Value: toTraceValue(av.Value)})
	}
	ev.Attrs = t.attrs
	if err := t.emit(&ev); err != nil {
		return storage.NilOID, err
	}
	return storage.MakeOID(storage.SegHistory, id), nil
}

// SetState implements workflow.Tracker.
func (t *TraceTracker) SetState(m workflow.ID, state string) error {
	id := m.Index()
	if err := t.emit(&TraceEvent{Kind: "state", ID: id, State: state}); err != nil {
		return err
	}
	t.setState(id, state)
	return nil
}

// MaterialsInState implements workflow.Tracker.
func (t *TraceTracker) MaterialsInState(state string) ([]workflow.ID, error) {
	k, ok := t.stateIdx[state]
	if !ok {
		return nil, nil
	}
	ids := slices.Clone(t.members[k])
	slices.Sort(ids)
	out := make([]workflow.ID, len(ids))
	for i, id := range ids {
		out[i] = storage.MakeOID(storage.SegMaterial, id)
	}
	return out, nil
}

func (t *TraceTracker) setState(id uint64, state string) {
	for uint64(len(t.stateOf)) <= id {
		t.stateOf = append(t.stateOf, 0)
		t.slot = append(t.slot, 0)
	}
	if s := t.stateOf[id]; s != 0 {
		// Move the old state's last member into id's slot.
		m := t.members[s-1]
		last := m[len(m)-1]
		m[t.slot[id]] = last
		t.slot[last] = t.slot[id]
		t.members[s-1] = m[:len(m)-1]
		t.stateOf[id] = 0
	}
	if state == "" {
		return
	}
	k, ok := t.stateIdx[state]
	if !ok {
		k = int32(len(t.members))
		t.stateIdx[state] = k
		t.members = append(t.members, nil)
	}
	t.stateOf[id] = k + 1
	t.slot[id] = int32(len(t.members[k]))
	t.members[k] = append(t.members[k], id)
}

func traceIDs(oids []workflow.ID) []uint64 {
	out := make([]uint64, len(oids))
	for i, o := range oids {
		out[i] = o.Index()
	}
	return out
}

// GenerateTrace runs the LabFlow-1 workload, emitting the event stream to w
// instead of a database. scaleX is in halves of BaseClones (2 = a 1.0X
// stream). It returns the number of events written.
func GenerateTrace(w io.Writer, p Params, scaleX int) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	tracker := NewTraceTracker(bw)
	lab, err := NewLab(p)
	if err != nil {
		return 0, err
	}
	eng, err := workflow.New(lab.Graph(), tracker, p.Seed)
	if err != nil {
		return 0, err
	}
	eng.SetOutOfOrder(p.OutOfOrderProb, p.OutOfOrderSkew)
	eng.AfterStep = func(step workflow.ID, class string, mats []workflow.ID) error {
		lab.NoteSpawns(class, mats)
		return nil
	}
	perInterval := (p.BaseClones + 1) / 2
	for i := 0; i < scaleX; i++ {
		if _, err := eng.InjectRoots(perInterval, "c"); err != nil {
			return tracker.Events, err
		}
		if _, err := eng.Run(100000); err != nil {
			return tracker.Events, err
		}
	}
	return tracker.Events, bw.Flush()
}

// ReplayStats summarizes a replayed trace.
type ReplayStats struct {
	Events    uint64
	Materials uint64
	Sets      uint64
	Steps     uint64
	States    uint64
}

// ReplayTrace applies a trace to an open database, mapping trace-local ids
// to real OIDs and committing every txnEvery events (<= 0 means 100). The
// database needs the workload's schema (DefineSchema) or implicit evolution
// enabled.
func ReplayTrace(r io.Reader, db *labbase.DB, txnEvery int) (ReplayStats, error) {
	if txnEvery <= 0 {
		txnEvery = 100
	}
	var stats ReplayStats
	oidOf := make(map[uint64]storage.OID)
	resolve := func(ids []uint64) ([]storage.OID, error) {
		out := make([]storage.OID, len(ids))
		for i, id := range ids {
			oid, ok := oidOf[id]
			if !ok {
				return nil, fmt.Errorf("core: trace references unknown id %d", id)
			}
			out[i] = oid
		}
		return out, nil
	}

	dec := json.NewDecoder(bufio.NewReader(r))
	inTxn := false
	pending := 0
	defer func() {
		if inTxn {
			_ = db.Commit()
		}
	}()
	for {
		var ev TraceEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return stats, fmt.Errorf("core: trace decode: %w", err)
		}
		if !inTxn {
			if err := db.Begin(); err != nil {
				return stats, err
			}
			inTxn = true
		}
		switch ev.Kind {
		case "material":
			oid, err := db.CreateMaterial(ev.Class, ev.Name, ev.State, ev.ValidTime)
			if err != nil {
				return stats, fmt.Errorf("core: replay material %d: %w", ev.ID, err)
			}
			oidOf[ev.ID] = oid
			stats.Materials++
		case "set":
			members, err := resolve(ev.Materials)
			if err != nil {
				return stats, err
			}
			oid, err := db.CreateMaterialSet(members)
			if err != nil {
				return stats, fmt.Errorf("core: replay set %d: %w", ev.ID, err)
			}
			oidOf[ev.ID] = oid
			stats.Sets++
		case "step":
			mats, err := resolve(ev.Materials)
			if err != nil {
				return stats, err
			}
			spec := labbase.StepSpec{Class: ev.Class, ValidTime: ev.ValidTime, Materials: mats}
			if ev.Set != 0 {
				set, ok := oidOf[ev.Set]
				if !ok {
					return stats, fmt.Errorf("core: trace step references unknown set %d", ev.Set)
				}
				spec.Set = set
			}
			spec.Attrs = make([]labbase.AttrValue, len(ev.Attrs))
			for i, ta := range ev.Attrs {
				v, err := fromTraceValue(ta.Value)
				if err != nil {
					return stats, err
				}
				spec.Attrs[i] = labbase.AttrValue{Name: ta.Name, Value: v}
			}
			oid, err := db.RecordStep(spec)
			if err != nil {
				return stats, fmt.Errorf("core: replay step %d (%s): %w", ev.ID, ev.Class, err)
			}
			oidOf[ev.ID] = oid
			stats.Steps++
		case "state":
			oid, ok := oidOf[ev.ID]
			if !ok {
				return stats, fmt.Errorf("core: trace state change for unknown id %d", ev.ID)
			}
			if err := db.SetState(oid, ev.State); err != nil {
				return stats, fmt.Errorf("core: replay state %d: %w", ev.ID, err)
			}
			stats.States++
		default:
			return stats, fmt.Errorf("core: unknown trace event kind %q", ev.Kind)
		}
		stats.Events++
		pending++
		if pending >= txnEvery {
			if err := db.Commit(); err != nil {
				return stats, err
			}
			inTxn = false
			pending = 0
		}
	}
	if inTxn {
		inTxn = false
		if err := db.Commit(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
