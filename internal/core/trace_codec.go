package core

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The trace codec. TraceTracker writes every event with appendLine, and
// (*TraceEvent).UnmarshalJSON reads the canonical form appendLine writes
// without reflection. appendLine's bytes are json.Marshal's, and
// UnmarshalJSON's value is json.Unmarshal's: input outside the canonical
// form, and any target that is not the zero event, go to encoding/json.

// traceEvent is TraceEvent without its UnmarshalJSON: the reflective
// decoding that non-canonical input falls back to.
type traceEvent TraceEvent

// maxListDepth bounds the list nesting the canonical decoder follows; deeper
// values go to encoding/json, which enforces its own nesting limit.
const maxListDepth = 64

// appendLine appends ev's JSON encoding and a newline to b: the bytes
// json.Encoder writes for ev, field order, omitempty and HTML escaping
// included. It fails only where encoding/json fails (a NaN or infinite
// float).
func (ev *TraceEvent) appendLine(b []byte) ([]byte, error) {
	b = append(b, `{"kind":`...)
	b = appendString(b, ev.Kind)
	if ev.ID != 0 {
		b = strconv.AppendUint(append(b, `,"id":`...), ev.ID, 10)
	}
	if ev.Class != "" {
		b = appendString(append(b, `,"class":`...), ev.Class)
	}
	if ev.Name != "" {
		b = appendString(append(b, `,"name":`...), ev.Name)
	}
	if ev.State != "" {
		b = appendString(append(b, `,"state":`...), ev.State)
	}
	if ev.ValidTime != 0 {
		b = strconv.AppendInt(append(b, `,"valid_time":`...), ev.ValidTime, 10)
	}
	if len(ev.Materials) > 0 {
		b = append(b, `,"materials":[`...)
		for i, m := range ev.Materials {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, m, 10)
		}
		b = append(b, ']')
	}
	if ev.Set != 0 {
		b = strconv.AppendUint(append(b, `,"set":`...), ev.Set, 10)
	}
	if len(ev.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i := range ev.Attrs {
			a := &ev.Attrs[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"name":`...), a.Name)
			var err error
			if b, err = appendValue(append(b, `,"value":`...), &a.Value); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

func appendValue(b []byte, v *TraceValue) ([]byte, error) {
	b = append(b, `{"kind":`...)
	b = appendString(b, v.Kind)
	if v.Int != 0 {
		b = strconv.AppendInt(append(b, `,"int":`...), v.Int, 10)
	}
	if v.Float != 0 {
		var err error
		if b, err = appendFloat(append(b, `,"float":`...), v.Float); err != nil {
			return b, err
		}
	}
	if v.Str != "" {
		b = appendString(append(b, `,"str":`...), v.Str)
	}
	if v.Bool {
		b = append(b, `,"bool":true`...)
	}
	if v.OID != 0 {
		b = strconv.AppendUint(append(b, `,"oid":`...), v.OID, 10)
	}
	if len(v.List) > 0 {
		b = append(b, `,"list":[`...)
		for i := range v.List {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendValue(b, &v.List[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// plainByte marks the bytes the codec copies into and out of a string
// unescaped, as encoding/json does: printable ASCII other than '"', '\',
// '<', '>' and '&'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendString writes s quoted. A string of plain bytes is copied; any
// other goes to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat writes f as encoding/json does. Inside [1e-6, 1e21) that is
// the shortest 'f' form; outside it, and for NaN and infinities, json.Marshal
// decides.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if a := math.Abs(f); a >= 1e-6 && a < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	q, err := json.Marshal(f)
	return append(b, q...), err
}

// UnmarshalJSON decodes one event. Into the zero event it reads the
// canonical form appendLine writes directly. Any other input (whitespace,
// strings with escapes or non-ASCII bytes, unknown, misplaced or differently
// cased keys, null, false, empty arrays, numbers the canonical form would
// not write) or target goes to encoding/json's reflective decoding, so the
// result is always what that gives.
func (ev *TraceEvent) UnmarshalJSON(data []byte) error {
	if ev.isZero() && ev.decodeCanonical(data) {
		return nil
	}
	return json.Unmarshal(data, (*traceEvent)(ev))
}

func (ev *TraceEvent) isZero() bool {
	return ev.Kind == "" && ev.ID == 0 && ev.Class == "" && ev.Name == "" && ev.State == "" &&
		ev.ValidTime == 0 && ev.Materials == nil && ev.Set == 0 && ev.Attrs == nil
}

// decodeCanonical sets ev from data and reports true if data is one event in
// the canonical form; otherwise it leaves ev alone and reports false.
func (ev *TraceEvent) decodeCanonical(data []byte) bool {
	r := canonReader{b: data}
	var out TraceEvent
	if !r.lit(`{"kind":`) || !r.str(&out.Kind) ||
		r.lit(`,"id":`) && !r.uint(&out.ID) ||
		r.lit(`,"class":`) && !r.str(&out.Class) ||
		r.lit(`,"name":`) && !r.str(&out.Name) ||
		r.lit(`,"state":`) && !r.str(&out.State) ||
		r.lit(`,"valid_time":`) && !r.int(&out.ValidTime) ||
		r.lit(`,"materials":[`) && !r.uints(&out.Materials) ||
		r.lit(`,"set":`) && !r.uint(&out.Set) ||
		r.lit(`,"attrs":[`) && !r.attrs(&out.Attrs) ||
		!r.lit("}") || r.i != len(data) {
		return false
	}
	*ev = out
	return true
}

// canonReader parses the canonical trace form: keys in field order, no
// whitespace, strings of plain bytes. Each method consumes what it matches
// and reports whether it matched; a false from any of them sends the whole
// event to encoding/json.
type canonReader struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (r *canonReader) lit(s string) bool {
	if len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// str reads a quoted string of plain bytes, the strings appendString copies.
func (r *canonReader) str(s *string) bool {
	if r.i >= len(r.b) || r.b[r.i] != '"' {
		return false
	}
	for j := r.i + 1; j < len(r.b); j++ {
		if c := r.b[j]; c == '"' {
			*s = string(r.b[r.i+1 : j])
			r.i = j + 1
			return true
		} else if !plainByte[c] {
			return false
		}
	}
	return false
}

// uint reads a JSON integer that fits a uint64. Anything strconv.ParseUint
// would refuse (a sign, a fraction, an exponent, overflow) is not matched.
func (r *canonReader) uint(v *uint64) bool {
	i, n := r.i, uint64(0)
	if i < len(r.b) && r.b[i] == '0' {
		i++
	} else {
		for ; i < len(r.b) && r.b[i] >= '0' && r.b[i] <= '9'; i++ {
			d := uint64(r.b[i] - '0')
			if n > (math.MaxUint64-d)/10 {
				return false
			}
			n = n*10 + d
		}
	}
	if i == r.i || i < len(r.b) && (r.b[i] == '.' || r.b[i] == 'e' || r.b[i] == 'E' || r.b[i] >= '0' && r.b[i] <= '9') {
		return false
	}
	*v, r.i = n, i
	return true
}

// int reads a JSON integer that fits an int64.
func (r *canonReader) int(v *int64) bool {
	neg := r.lit("-")
	var u uint64
	if !r.uint(&u) || !neg && u > math.MaxInt64 || neg && u > 1<<63 {
		return false
	}
	if neg {
		*v = -int64(u) // for 1<<63, int64(u) wraps to MinInt64, its own negation
	} else {
		*v = int64(u)
	}
	return true
}

// float reads a JSON number and converts it as encoding/json does.
func (r *canonReader) float(v *float64) bool {
	i := r.i
	digits := func() bool {
		j := i
		for ; i < len(r.b) && r.b[i] >= '0' && r.b[i] <= '9'; i++ {
		}
		return i > j
	}
	if i < len(r.b) && r.b[i] == '-' {
		i++
	}
	if i < len(r.b) && r.b[i] == '0' {
		i++
	} else if !digits() {
		return false
	}
	if i < len(r.b) && r.b[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(r.b) && (r.b[i] == 'e' || r.b[i] == 'E') {
		i++
		if i < len(r.b) && (r.b[i] == '+' || r.b[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(r.b[r.i:i]), 64)
	if err != nil {
		return false
	}
	*v, r.i = f, i
	return true
}

// uints reads the elements and closing bracket of a non-empty array of
// uint64 into a slice of exactly their number.
func (r *canonReader) uints(v *[]uint64) bool {
	var buf [8]uint64
	out := buf[:0]
	for {
		var n uint64
		if !r.uint(&n) {
			return false
		}
		out = append(out, n)
		if r.lit("]") {
			*v = append(make([]uint64, 0, len(out)), out...)
			return true
		}
		if !r.lit(",") {
			return false
		}
	}
}

// attrs reads the elements and closing bracket of a non-empty array of
// attributes.
func (r *canonReader) attrs(v *[]TraceAttr) bool {
	var out []TraceAttr
	for {
		out = append(out, TraceAttr{})
		a := &out[len(out)-1]
		if !r.lit(`{"name":`) || !r.str(&a.Name) || !r.lit(`,"value":`) || !r.value(&a.Value, 0) || !r.lit("}") {
			return false
		}
		if r.lit("]") {
			*v = out
			return true
		}
		if !r.lit(",") {
			return false
		}
	}
}

func (r *canonReader) value(v *TraceValue, depth int) bool {
	if !r.lit(`{"kind":`) || !r.str(&v.Kind) ||
		r.lit(`,"int":`) && !r.int(&v.Int) ||
		r.lit(`,"float":`) && !r.float(&v.Float) ||
		r.lit(`,"str":`) && !r.str(&v.Str) {
		return false
	}
	v.Bool = r.lit(`,"bool":true`)
	if r.lit(`,"oid":`) && !r.uint(&v.OID) {
		return false
	}
	if r.lit(`,"list":[`) {
		if depth >= maxListDepth {
			return false
		}
		for {
			v.List = append(v.List, TraceValue{})
			if !r.value(&v.List[len(v.List)-1], depth+1) {
				return false
			}
			if r.lit("]") {
				break
			}
			if !r.lit(",") {
				return false
			}
		}
	}
	return r.lit("}")
}
