package labbase

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"labflow/internal/rec"
	"labflow/internal/storage"
)

// Kind enumerates attribute value types. KindAny, on an attribute
// definition, accepts values of every kind — LabBase's schema flexibility.
type Kind uint8

const (
	// KindAny is only meaningful on attribute definitions.
	KindAny Kind = iota
	// KindNil is the absent value.
	KindNil
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a float64.
	KindFloat
	// KindString is a string (DNA sequences are stored as strings).
	KindString
	// KindBool is a boolean.
	KindBool
	// KindOID is a reference to a material, step or set.
	KindOID
	// KindList is an ordered list of values — the paper's "set and list
	// generation" requirement (BLAST hit lists) is stored with these.
	KindList
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindAny:
		return "any"
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindOID:
		return "oid"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	OID   storage.OID
	List  []Value
}

// Nil returns the absent value.
func Nil() Value { return Value{Kind: KindNil} }

// Int64 wraps an integer.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Float64 wraps a float.
func Float64(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// String wraps a string.
func String(v string) Value { return Value{Kind: KindString, Str: v} }

// Bool wraps a boolean.
func Bool(v bool) Value {
	if v {
		return Value{Kind: KindBool, Int: 1}
	}
	return Value{Kind: KindBool}
}

// Ref wraps an object reference.
func Ref(oid storage.OID) Value { return Value{Kind: KindOID, OID: oid} }

// List wraps a list of values.
func ListOf(vs ...Value) Value { return Value{Kind: KindList, List: vs} }

// AsBool reports the boolean interpretation (false for non-bools).
func (v Value) AsBool() bool { return v.Kind == KindBool && v.Int != 0 }

// IsNil reports whether the value is absent.
func (v Value) IsNil() bool { return v.Kind == KindNil }

// Equal reports deep equality.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindInt, KindBool:
		return v.Int == o.Int
	case KindFloat:
		// Bit equality, so stored NaNs compare equal to themselves.
		return math.Float64bits(v.Float) == math.Float64bits(o.Float)
	case KindString:
		return v.Str == o.Str
	case KindOID:
		return v.OID == o.OID
	case KindList:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(o.List[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// GoString returns a compact display form.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.Str)
	case KindBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case KindOID:
		return v.OID.String()
	case KindList:
		parts := make([]string, len(v.List))
		for i, e := range v.List {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return fmt.Sprintf("value(kind=%d)", v.Kind)
	}
}

// encode appends the value to e.
func (v Value) encode(e *rec.Encoder) {
	e.Byte(byte(v.Kind))
	switch v.Kind {
	case KindNil, KindAny:
	case KindInt, KindBool:
		e.Int(v.Int)
	case KindFloat:
		e.Float(v.Float)
	case KindString:
		e.String(v.Str)
	case KindOID:
		e.Uint(uint64(v.OID))
	case KindList:
		e.Uint(uint64(len(v.List)))
		for _, el := range v.List {
			el.encode(e)
		}
	}
}

// decodeValue reads a value from d.
func decodeValue(d *rec.Decoder) Value {
	k := Kind(d.Byte())
	// KindAny marks untyped attribute definitions; concrete values are
	// always a specific kind.
	if k == KindAny || k > KindList {
		d.Corrupt(fmt.Sprintf("unknown value kind %d", k))
		return Nil()
	}
	v := Value{Kind: k}
	switch k {
	case KindNil:
	case KindInt, KindBool:
		v.Int = d.Int()
	case KindFloat:
		v.Float = d.Float()
	case KindString:
		v.Str = d.String()
	case KindOID:
		v.OID = storage.OID(d.Uint())
	case KindList:
		n := d.Count(1 << 24)
		if d.Err() != nil {
			return Nil()
		}
		v.List = make([]Value, n)
		for i := range v.List {
			v.List[i] = decodeValue(d)
		}
	}
	return v
}

// skipValue reads past a value as decodeValue would, with the same checks,
// but builds nothing: strings stay in the buffer and lists are walked.
func skipValue(d *rec.Decoder) {
	k := Kind(d.Byte())
	if k == KindAny || k > KindList {
		d.Corrupt(fmt.Sprintf("unknown value kind %d", k))
		return
	}
	switch k {
	case KindInt, KindBool:
		d.Int()
	case KindFloat:
		d.Float()
	case KindString:
		d.Bytes()
	case KindOID:
		d.Uint()
	case KindList:
		for range d.Count(1 << 24) {
			skipValue(d)
		}
	}
}

// matches reports whether the value is acceptable for an attribute of kind k.
func (v Value) matches(k Kind) bool {
	return k == KindAny || v.Kind == KindNil || v.Kind == k
}

// EncodeValue appends v to e; the wire protocol shares the storage encoding.
func EncodeValue(e *rec.Encoder, v Value) { v.encode(e) }

// DecodeValue reads a value written by EncodeValue.
func DecodeValue(d *rec.Decoder) Value { return decodeValue(d) }
