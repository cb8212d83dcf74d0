// Package datalog implements the deductive query language of the LabFlow-1
// benchmark: a logic language "in the tradition of Datalog and Prolog, and
// very similar to the query language used at the Genome Center" (Section 6).
//
// Rules are written `head <- body.` as in the paper (`:-` is also accepted),
// goals compose with `,` (and), `;` (or) and `\+` (negation as failure), and
// the update and aggregation primitives the benchmark specifies — assert,
// retract, setof, findall — are built in. Database-backed predicates
// (material/2, state/2, most_recent/3, ...) are plugged in with
// Engine.RegisterExternCtx; package lbq provides the LabBase bindings.
package datalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Term is a logic term: Atom, Int, Float, Str, *Var or *Compound.
type Term interface {
	isTerm()
	// String renders the term with bound variables resolved as far as the
	// term itself records (call Resolve for a deep copy under bindings).
	String() string
}

// Atom is a symbolic constant (lowercase identifier or quoted atom).
type Atom string

// Int is an integer constant.
type Int int64

// Float is a floating-point constant.
type Float float64

// Str is a string constant (double-quoted in source).
type Str string

// Var is a logic variable. Vars have pointer identity; Ref is the bound
// value (nil while unbound).
type Var struct {
	Name string
	Ref  Term
}

// Compound is a functor applied to arguments. Lists are compounds of
// functor "." with two arguments, terminated by the atom "[]".
type Compound struct {
	Functor string
	Args    []Term
}

func (Atom) isTerm()      {}
func (Int) isTerm()       {}
func (Float) isTerm()     {}
func (Str) isTerm()       {}
func (*Var) isTerm()      {}
func (*Compound) isTerm() {}

// EmptyList is the list terminator atom.
const EmptyList = Atom("[]")

// Cons builds a list cell.
func Cons(head, tail Term) *Compound {
	return &Compound{Functor: ".", Args: []Term{head, tail}}
}

// MkList builds a proper list from elements.
func MkList(elems ...Term) Term {
	var t Term = EmptyList
	for i := len(elems) - 1; i >= 0; i-- {
		t = Cons(elems[i], t)
	}
	return t
}

// ListSlice returns the elements of a proper list, or ok=false.
func ListSlice(t Term) ([]Term, bool) {
	var out []Term
	for {
		t = deref(t)
		if t == EmptyList {
			return out, true
		}
		c, ok := t.(*Compound)
		if !ok || c.Functor != "." || len(c.Args) != 2 {
			return nil, false
		}
		out = append(out, c.Args[0])
		t = c.Args[1]
	}
}

// deref follows variable bindings to the representative term.
func deref(t Term) Term {
	for {
		v, ok := t.(*Var)
		if !ok || v.Ref == nil {
			return t
		}
		t = v.Ref
	}
}

// Resolve returns a copy of t with all bound variables replaced by their
// values (unbound variables stay).
func Resolve(t Term) Term {
	t = deref(t)
	if c, ok := t.(*Compound); ok {
		args := make([]Term, len(c.Args))
		for i, a := range c.Args {
			args[i] = Resolve(a)
		}
		return &Compound{Functor: c.Functor, Args: args}
	}
	return t
}

func (a Atom) String() string {
	s := string(a)
	if s == "[]" || isPlainAtom(s) {
		return s
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range s {
		switch r {
		case '\'':
			b.WriteString("\\'")
		case '\\':
			b.WriteString("\\\\")
		case '\n':
			b.WriteString("\\n")
		case '\t':
			b.WriteString("\\t")
		case '\r':
			b.WriteString("\\r")
		default:
			if r < 0x20 || r == 0x7F {
				fmt.Fprintf(&b, "\\x%02x", r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('\'')
	return b.String()
}

func isPlainAtom(s string) bool {
	if s == "" {
		return false
	}
	if !(s[0] >= 'a' && s[0] <= 'z') {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

func (i Int) String() string   { return strconv.FormatInt(int64(i), 10) }
func (f Float) String() string { return strconv.FormatFloat(float64(f), 'g', -1, 64) }
func (s Str) String() string   { return strconv.Quote(string(s)) }

func (v *Var) String() string {
	if v.Ref != nil {
		return deref(v).String()
	}
	if v.Name == "" || v.Name == "_" {
		return fmt.Sprintf("_G%p", v)
	}
	return v.Name
}

func (c *Compound) String() string {
	// Render proper lists with bracket syntax.
	if c.Functor == "." && len(c.Args) == 2 {
		var parts []string
		var t Term = c
		for {
			t = deref(t)
			cc, ok := t.(*Compound)
			if ok && cc.Functor == "." && len(cc.Args) == 2 {
				parts = append(parts, deref(cc.Args[0]).String())
				t = cc.Args[1]
				continue
			}
			if t == EmptyList {
				return "[" + strings.Join(parts, ", ") + "]"
			}
			return "[" + strings.Join(parts, ", ") + "|" + t.String() + "]"
		}
	}
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = deref(a).String()
	}
	return Atom(c.Functor).String() + "(" + strings.Join(args, ", ") + ")"
}

// indicator returns the functor/arity key of a callable term.
func indicator(t Term) (string, bool) {
	switch t := deref(t).(type) {
	case Atom:
		return string(t) + "/0", true
	case *Compound:
		return fmt.Sprintf("%s/%d", t.Functor, len(t.Args)), true
	default:
		return "", false
	}
}

// compare orders ground terms for setof: numbers < atoms < strings <
// compounds; within compounds by functor, arity, then args.
func compare(a, b Term) int {
	a, b = deref(a), deref(b)
	ra, rb := rank(a), rank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch x := a.(type) {
	case Int:
		// Exact comparison when both are ints: float64 cannot represent
		// all int64 values (OIDs live near 2^56) and would merge them.
		if y, ok := b.(Int); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			default:
				return 0
			}
		}
		return cmpFloat(float64(x), numVal(b))
	case Float:
		return cmpFloat(float64(x), numVal(b))
	case Atom:
		return strings.Compare(string(x), string(b.(Atom)))
	case Str:
		return strings.Compare(string(x), string(b.(Str)))
	case *Var:
		y := b.(*Var)
		return strings.Compare(fmt.Sprintf("%p", x), fmt.Sprintf("%p", y))
	case *Compound:
		y := b.(*Compound)
		if len(x.Args) != len(y.Args) {
			return len(x.Args) - len(y.Args)
		}
		if c := strings.Compare(x.Functor, y.Functor); c != 0 {
			return c
		}
		for i := range x.Args {
			if c := compare(x.Args[i], y.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	return 0
}

func rank(t Term) int {
	switch t.(type) {
	case *Var:
		return 0
	case Int, Float:
		return 1
	case Atom:
		return 2
	case Str:
		return 3
	default:
		return 4
	}
}

func numVal(t Term) float64 {
	switch t := t.(type) {
	case Int:
		return float64(t)
	case Float:
		return float64(t)
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// sortUnique sorts terms by compare and drops duplicates (for setof).
func sortUnique(ts []Term) []Term {
	sort.SliceStable(ts, func(i, j int) bool { return compare(ts[i], ts[j]) < 0 })
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || compare(out[len(out)-1], t) != 0 {
			out = append(out, t)
		}
	}
	return out
}

// renameTerm copies t, giving fresh variables (shared through seen).
func renameTerm(t Term, seen map[*Var]*Var) Term {
	switch t := t.(type) {
	case *Var:
		if t.Ref != nil {
			return renameTerm(deref(t), seen)
		}
		if nv, ok := seen[t]; ok {
			return nv
		}
		nv := &Var{Name: t.Name}
		seen[t] = nv
		return nv
	case *Compound:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = renameTerm(a, seen)
		}
		return &Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}
