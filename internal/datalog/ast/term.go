// Package ast defines the abstract syntax of the deductive (logic)
// programming language used to program sensor networks: terms, literals,
// rules and programs.
//
// The language is Datalog extended with function symbols in predicate
// arguments (making it Turing complete), restricted negation, built-in
// predicates, and aggregates — exactly the language of the ICDE'09 paper
// "Deductive Framework for Programming Sensor Networks".
package ast

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// TermKind discriminates the variants of Term.
type TermKind uint8

// Term variants.
const (
	KindInt      TermKind = iota // integer constant
	KindFloat                    // floating-point constant
	KindString                   // string constant (double-quoted in source)
	KindSymbol                   // symbolic constant (lowercase atom, e.g. enemy)
	KindVar                      // variable (uppercase or _)
	KindCompound                 // f(t1, ..., tn), includes lists
)

// ListFunctor is the functor used for list cells: [H|T] is list(H, T) and
// the empty list [] is the symbol constant "nil".
const ListFunctor = "."

// NilSymbol is the symbolic constant terminating a proper list.
const NilSymbol = "[]"

// AnonymousVar is the name of the anonymous ("don't care") variable. Each
// occurrence of "_" in source is renamed apart by the parser to a fresh
// variable whose name begins with this prefix.
const AnonymousVar = "_"

// Term is a logic term: a constant, a variable, or a compound term
// f(t1, ..., tn). Terms are immutable after construction; all package
// functions treat them as values.
type Term struct {
	Kind  TermKind
	Int   int64   // valid when Kind == KindInt
	Float float64 // valid when Kind == KindFloat
	Str   string  // constant text (KindString, KindSymbol), variable name (KindVar), functor (KindCompound)
	Args  []Term  // valid when Kind == KindCompound
}

// Int64 returns an integer constant term.
func Int64(v int64) Term { return Term{Kind: KindInt, Int: v} }

// Float64 returns a floating-point constant term.
func Float64(v float64) Term { return Term{Kind: KindFloat, Float: v} }

// String_ returns a string constant term.
func String_(s string) Term { return Term{Kind: KindString, Str: s} }

// Symbol returns a symbolic constant term (an atom such as `enemy`).
func Symbol(s string) Term { return Term{Kind: KindSymbol, Str: s} }

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Kind: KindVar, Str: name} }

// Compound returns the compound term functor(args...).
func Compound(functor string, args ...Term) Term {
	return Term{Kind: KindCompound, Str: functor, Args: args}
}

// List builds a proper list term from elems: [e1, e2, ..., en].
func List(elems ...Term) Term {
	return ListWithTail(elems, Symbol(NilSymbol))
}

// ListWithTail builds [e1, ..., en | tail].
func ListWithTail(elems []Term, tail Term) Term {
	t := tail
	for i := len(elems) - 1; i >= 0; i-- {
		t = Compound(ListFunctor, elems[i], t)
	}
	return t
}

// IsConst reports whether t is a constant (no variables anywhere).
func (t Term) IsConst() bool {
	switch t.Kind {
	case KindVar:
		return false
	case KindCompound:
		for _, a := range t.Args {
			if !a.IsConst() {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// IsList reports whether t is a proper list (nil-terminated chain of list
// cells).
func (t Term) IsList() bool {
	for {
		if t.Kind == KindSymbol && t.Str == NilSymbol {
			return true
		}
		if t.Kind == KindCompound && t.Str == ListFunctor && len(t.Args) == 2 {
			t = t.Args[1]
			continue
		}
		return false
	}
}

// ListElems returns the elements of a proper list term, and ok=false if t
// is not a proper list.
func (t Term) ListElems() (elems []Term, ok bool) {
	for {
		if t.Kind == KindSymbol && t.Str == NilSymbol {
			return elems, true
		}
		if t.Kind == KindCompound && t.Str == ListFunctor && len(t.Args) == 2 {
			elems = append(elems, t.Args[0])
			t = t.Args[1]
			continue
		}
		return nil, false
	}
}

// IsAnonymous reports whether t is an occurrence of the anonymous variable
// (after parser renaming, any variable whose name starts with "_").
func (t Term) IsAnonymous() bool {
	return t.Kind == KindVar && strings.HasPrefix(t.Str, AnonymousVar)
}

// Numeric returns the numeric value of an int or float constant.
func (t Term) Numeric() (float64, bool) {
	switch t.Kind {
	case KindInt:
		return float64(t.Int), true
	case KindFloat:
		return t.Float, true
	}
	return 0, false
}

// Equal reports structural equality of two terms.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KindInt:
		return t.Int == u.Int
	case KindFloat:
		return t.Float == u.Float || (math.IsNaN(t.Float) && math.IsNaN(u.Float))
	case KindString, KindSymbol, KindVar:
		return t.Str == u.Str
	case KindCompound:
		if t.Str != u.Str || len(t.Args) != len(u.Args) {
			return false
		}
		for i := range t.Args {
			if !t.Args[i].Equal(u.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare establishes a total order over terms: by kind, then value.
// Useful for canonical tuple ordering and deterministic output.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		return int(t.Kind) - int(u.Kind)
	}
	switch t.Kind {
	case KindInt:
		switch {
		case t.Int < u.Int:
			return -1
		case t.Int > u.Int:
			return 1
		}
		return 0
	case KindFloat:
		switch {
		case t.Float < u.Float:
			return -1
		case t.Float > u.Float:
			return 1
		}
		return 0
	case KindString, KindSymbol, KindVar:
		return strings.Compare(t.Str, u.Str)
	case KindCompound:
		if c := strings.Compare(t.Str, u.Str); c != 0 {
			return c
		}
		if d := len(t.Args) - len(u.Args); d != 0 {
			return d
		}
		for i := range t.Args {
			if c := t.Args[i].Compare(u.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	return 0
}

// Vars appends the names of all variables occurring in t to dst (with
// duplicates) and returns the extended slice.
func (t Term) Vars(dst []string) []string {
	switch t.Kind {
	case KindVar:
		return append(dst, t.Str)
	case KindCompound:
		for _, a := range t.Args {
			dst = a.Vars(dst)
		}
	}
	return dst
}

// Ground reports whether t contains no variables. Alias of IsConst with
// the conventional logic-programming name.
func (t Term) Ground() bool { return t.IsConst() }

// Depth returns the maximum nesting depth of compound terms in t. Constants
// and variables have depth 0.
func (t Term) Depth() int {
	if t.Kind != KindCompound {
		return 0
	}
	max := 0
	for _, a := range t.Args {
		if d := a.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Size returns the number of nodes in the term tree.
func (t Term) Size() int {
	if t.Kind != KindCompound {
		return 1
	}
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}

// Key returns a canonical string encoding of t, injective over ground
// terms, suitable for map keys and hashing. Variables encode by name.
func (t Term) Key() string {
	return string(t.AppendKey(nil))
}

// AppendKey appends t's canonical key encoding to b and returns the
// extended slice, letting hot paths reuse a scratch buffer.
func (t Term) AppendKey(b []byte) []byte {
	switch t.Kind {
	case KindInt:
		b = append(b, 'i')
		b = strconv.AppendInt(b, t.Int, 10)
	case KindFloat:
		b = append(b, 'f')
		b = strconv.AppendFloat(b, t.Float, 'g', -1, 64)
	case KindString:
		b = append(b, 's')
		b = appendQuote(b, t.Str)
	case KindSymbol:
		b = append(b, 'a')
		b = appendQuote(b, t.Str)
	case KindVar:
		b = append(b, 'v')
		b = append(b, t.Str...)
	case KindCompound:
		b = append(b, 'c')
		b = appendQuote(b, t.Str)
		b = append(b, '(')
		for i, a := range t.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = a.AppendKey(b)
		}
		b = append(b, ')')
	}
	return b
}

// appendQuote is strconv.AppendQuote with a fast path for the common
// key component: printable ASCII with no quote or backslash, which
// AppendQuote copies verbatim between double quotes anyway.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// isArithOp reports whether functor is one of the infix arithmetic
// operators the expression grammar builds compound terms from.
func isArithOp(functor string) bool {
	switch functor {
	case "+", "-", "*", "/", "mod":
		return true
	}
	return false
}

// String renders t in source syntax. Lists render as [a, b, c] or [H|T].
func (t Term) String() string {
	var b strings.Builder
	t.appendString(&b)
	return b.String()
}

func (t Term) appendString(b *strings.Builder) {
	switch t.Kind {
	case KindInt:
		b.WriteString(strconv.FormatInt(t.Int, 10))
	case KindFloat:
		s := strconv.FormatFloat(t.Float, 'g', -1, 64)
		b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(".0")
		}
	case KindString:
		b.WriteString(strconv.Quote(t.Str))
	case KindSymbol:
		b.WriteString(t.Str)
	case KindVar:
		b.WriteString(t.Str)
	case KindCompound:
		if t.Str == ListFunctor && len(t.Args) == 2 {
			t.appendListString(b)
			return
		}
		// Arithmetic operators lex as operator tokens, not identifiers,
		// so functor form +(D, 1) would not re-parse; print them infix,
		// fully parenthesized (the grammar's primary accepts '(' expr ')').
		if isArithOp(t.Str) && len(t.Args) == 2 {
			b.WriteByte('(')
			t.Args[0].appendString(b)
			b.WriteByte(' ')
			b.WriteString(t.Str)
			b.WriteByte(' ')
			t.Args[1].appendString(b)
			b.WriteByte(')')
			return
		}
		if t.Str == "-" && len(t.Args) == 1 {
			b.WriteByte('-')
			t.Args[0].appendString(b)
			return
		}
		b.WriteString(t.Str)
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.appendString(b)
		}
		b.WriteByte(')')
	}
}

func (t Term) appendListString(b *strings.Builder) {
	b.WriteByte('[')
	first := true
	for {
		if !first {
			// nothing; separators written below
		}
		if t.Kind == KindCompound && t.Str == ListFunctor && len(t.Args) == 2 {
			if !first {
				b.WriteString(", ")
			}
			t.Args[0].appendString(b)
			first = false
			t = t.Args[1]
			continue
		}
		if t.Kind == KindSymbol && t.Str == NilSymbol {
			break
		}
		b.WriteString(" | ")
		t.appendString(b)
		break
	}
	b.WriteByte(']')
}

// RenameVars returns a copy of t with every variable name transformed by f.
func (t Term) RenameVars(f func(string) string) Term {
	switch t.Kind {
	case KindVar:
		return Var(f(t.Str))
	case KindCompound:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.RenameVars(f)
		}
		return Compound(t.Str, args...)
	default:
		return t
	}
}

// SortTerms sorts terms in place by Compare.
func SortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// FormatTerms renders a term slice as "t1, t2, ...".
func FormatTerms(ts []Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

var _ fmt.Stringer = Term{}
