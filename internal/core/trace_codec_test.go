package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"labflow/internal/labbase"
)

// prefilled is a non-zero decoding target: reflective decoding merges into
// it (and reuses its slices), so UnmarshalJSON must hand it to encoding/json.
func prefilled() TraceEvent {
	return TraceEvent{
		Kind: "old", ID: 9, Class: "c", Name: "n", State: "s", ValidTime: -4,
		Materials: []uint64{7, 8, 9}, Set: 3,
		Attrs: []TraceAttr{{Name: "a", Value: TraceValue{Kind: "list", List: []TraceValue{{Kind: "int", Int: 1}, {Kind: "str", Str: "x"}}}}},
	}
}

// FuzzTraceEvent checks the trace codec against encoding/json. For any
// input, UnmarshalJSON into the zero event and into a filled one gives what
// reflective decoding gives, error or value; and every decoded event encodes
// to json.Marshal's bytes and a newline.
func FuzzTraceEvent(f *testing.F) {
	var gen bytes.Buffer
	p := testParams()
	p.Seed = 1
	if _, err := GenerateTrace(&gen, p, 1); err != nil {
		f.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range bytes.Split(gen.Bytes(), []byte{'\n'}) {
		// One generated line of each step class and event kind.
		var ev TraceEvent
		if json.Unmarshal(line, &ev) == nil && !seen[ev.Kind+ev.Class] {
			seen[ev.Kind+ev.Class] = true
			f.Add(line)
		}
	}
	for _, s := range []string{
		`{"kind":"step","id":3,"valid_time":-9223372036854775808,"materials":[1,18446744073709551615],"attrs":[{"name":"x","value":{"kind":"float","float":1e-7}}]}`,
		`{"kind":"step","attrs":[{"name":"l","value":{"kind":"list","list":[{"kind":"list","list":[{"kind":"bool","bool":true},{"kind":"oid","oid":4}]}]}}]}`,
		`{"kind":"material","id":18446744073709551616}`,
		`{"kind":"material","valid_time":9223372036854775808}`,
		`{"kind":"material","id":1.0}`,
		`{"kind":"material","id":-1}`,
		`{"kind":"material","id":01}`,
		`{"kind":"step","attrs":[{"name":"f","value":{"kind":"float","float":1e400}}]}`,
		`{"kind":"step","attrs":[{"name":"f","value":{"kind":"float","float":-0.5E+3}}]}`,
		`{"kind":"step","attrs":[{"name":"i","value":{"kind":"int","int":-0}}]}`,
		`{"kind":"set","materials":[]}`,
		`{"kind":"set","materials":null}`,
		`{"kind":"set" ,"id":2}`,
		` {"kind":"set"}`,
		`{"kind":"set"} `,
		`{"kind":"set"}x`,
		`{"Kind":"set"}`,
		`{"kind":"set","extra":1}`,
		`{"id":1,"kind":"set"}`,
		`{"kind":"set","id":1,"id":2}`,
		`{"kind":"set"}`,
		`{"kind":"<&>"}`,
		"{\"kind\":\"caf\xc3\xa9\"}",
		"{\"kind\":\"bad\xff\"}",
		"{\"kind\":\"\xed\xa0\x80\"}",
		`{"kind":"x","attrs":[{"name":"b","value":{"kind":"bool","bool":false}}]}`,
		`{}`,
		`null`,
		`[]`,
		`{"kind":"x"`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, target := range []func() TraceEvent{func() TraceEvent { return TraceEvent{} }, prefilled} {
			want, got := target(), target()
			wantErr := json.Unmarshal(data, (*traceEvent)(&want))
			gotErr := got.UnmarshalJSON(data)
			if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Fatalf("%q: UnmarshalJSON error %v, reflective %v", data, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !reflect.DeepEqual(got, TraceEvent(want)) {
				t.Fatalf("%q: UnmarshalJSON = %+v, reflective %+v", data, got, want)
			}
			line, err := got.appendLine(nil)
			marshal, merr := json.Marshal((*traceEvent)(&got))
			if err != nil || merr != nil || !bytes.Equal(line, append(marshal, '\n')) {
				t.Fatalf("%q: encoder %q (%v), json.Marshal %q (%v)", data, line, err, marshal, merr)
			}
		}
	})
}

// TestTraceEventEncoderRefusesWhatJSONRefuses: a float json cannot encode
// fails the event, as json.Encoder did, and writes nothing.
func TestTraceEventEncoderRefusesWhatJSONRefuses(t *testing.T) {
	var out strings.Builder
	ev := TraceEvent{Kind: "step", Attrs: []TraceAttr{{Name: "f", Value: TraceValue{Kind: "float", Float: 0}}}}
	for _, f := range []float64{1e-7, 1e21, -3.5e-300} {
		ev.Attrs[0].Value.Float = f
		line, err := ev.appendLine(nil)
		want, werr := json.Marshal(&ev)
		if err != nil || werr != nil || string(line) != string(want)+"\n" {
			t.Errorf("float %v: encoder %q (%v), json %q (%v)", f, line, err, want, werr)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(-1)} {
		tw := &traceWriter{w: &out}
		tw.write(&event{kind: evStep, attrs: []labbase.AttrValue{{Name: "f", Value: labbase.Float64(f)}}})
		if tw.err == nil {
			t.Errorf("float %v: write succeeded", f)
		}
	}
	if out.Len() != 0 {
		t.Errorf("failed events wrote %q", out.String())
	}
}
