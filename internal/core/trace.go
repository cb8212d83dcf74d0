package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"

	"labflow/internal/labbase"
	"labflow/internal/storage"
)

// The trace format makes the benchmark workload portable: GenerateTrace
// writes the workload stream's mutations (one JSON object per line), and
// ReplayTrace applies such a trace to any LabBase database through the same
// applier every experiment uses — so the same workload can drive other
// systems, or be archived with published results. Scans, commits and the
// query mix stay out of the trace.

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

// traceWriter encodes a stream's mutations as trace lines. It stops at its
// first error and keeps it.
type traceWriter struct {
	w     io.Writer
	line  []byte      // the line being written, reused
	attrs []TraceAttr // a step's attributes, reused
	n     uint64      // mutations encoded
	err   error
}

func (tw *traceWriter) write(ev *event) {
	if ev.kind > evState || tw.err != nil {
		return
	}
	tw.n++
	tw.attrs = tw.attrs[:0]
	for _, av := range ev.attrs {
		tw.attrs = append(tw.attrs, TraceAttr{Name: av.Name, Value: toTraceValue(av.Value)})
	}
	tev := TraceEvent{
		Kind: ev.kind.String(), ID: ev.id, Class: ev.class, Name: ev.name, State: ev.state,
		ValidTime: ev.validTime, Materials: ev.materials, Set: ev.set, Attrs: tw.attrs,
	}
	if tw.line, tw.err = tev.appendLine(tw.line[:0]); tw.err == nil {
		_, tw.err = tw.w.Write(tw.line)
	}
}

// GenerateTrace runs the LabFlow-1 workload, writing its mutations to w as
// they are generated. scaleX is in halves of BaseClones (2 = a 1.0X
// stream). It returns the number of events written.
func GenerateTrace(w io.Writer, p Params, scaleX int) (uint64, error) {
	bw := bufio.NewWriter(w)
	tw := &traceWriter{w: bw}
	_, err := generate(p, scaleX, tw.write)
	if err == nil {
		err = tw.err
	}
	if err == nil {
		err = bw.Flush()
	}
	return tw.n, err
}

// ReplayStats summarizes a replayed trace.
type ReplayStats struct {
	Events    uint64
	Materials uint64
	Sets      uint64
	Steps     uint64
	States    uint64
}

// ReplayTrace applies a trace to an open database, defining the workload's
// schema first, mapping trace-local ids to real OIDs and committing every
// txnEvery events (<= 0 means 100).
func ReplayTrace(r io.Reader, db *labbase.DB, txnEvery int) (ReplayStats, error) {
	if txnEvery <= 0 {
		txnEvery = 100
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<30)
	pending, lineNo := 0, 0
	var ev event
	a, err := apply(db, func() (*event, error) {
		if pending == txnEvery {
			pending = 0
			return &event{kind: evCommit}, nil
		}
		for sc.Scan() {
			lineNo++
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				var err error
				if ev, err = decodeTraceLine(line); err != nil {
					return nil, fmt.Errorf("core: trace line %d: %w", lineNo, err)
				}
				pending++
				return &ev, nil
			}
		}
		return nil, sc.Err()
	}, false)
	return a.ReplayStats, err
}

// decodeTraceLine decodes one trace line's event.
func decodeTraceLine(line []byte) (event, error) {
	var tev TraceEvent
	if err := tev.UnmarshalJSON(line); err != nil {
		return event{}, err
	}
	k := slices.Index(evKindNames[:evState+1], tev.Kind)
	if k < 0 {
		return event{}, fmt.Errorf("unknown trace event kind %q", tev.Kind)
	}
	ev := event{
		kind: evKind(k), id: tev.ID, class: tev.Class, name: tev.Name, state: tev.State,
		validTime: tev.ValidTime, materials: tev.Materials, set: tev.Set,
	}
	for _, ta := range tev.Attrs {
		v, err := fromTraceValue(ta.Value)
		if err != nil {
			return event{}, err
		}
		ev.attrs = append(ev.attrs, labbase.AttrValue{Name: ta.Name, Value: v})
	}
	return ev, nil
}
