package ast

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		term Term
		kind TermKind
	}{
		{Int64(5), KindInt},
		{Float64(2.5), KindFloat},
		{String_("hi"), KindString},
		{Symbol("enemy"), KindSymbol},
		{Var("X"), KindVar},
		{Compound("f", Int64(1)), KindCompound},
	}
	for _, c := range cases {
		if c.term.Kind != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.term, c.term.Kind, c.kind)
		}
	}
}

func TestListConstruction(t *testing.T) {
	l := List(Int64(1), Int64(2), Int64(3))
	if !l.IsList() {
		t.Fatalf("List(...) not a list: %v", l)
	}
	elems, ok := l.ListElems()
	if !ok || len(elems) != 3 {
		t.Fatalf("ListElems = %v, %v", elems, ok)
	}
	for i, e := range elems {
		if e.Int != int64(i+1) {
			t.Errorf("elem %d = %v", i, e)
		}
	}
	if got := l.String(); got != "[1, 2, 3]" {
		t.Errorf("String = %q", got)
	}
}

func TestListWithTailVariable(t *testing.T) {
	l := ListWithTail([]Term{Var("H")}, Var("T"))
	if l.IsList() {
		t.Error("open list should not be a proper list")
	}
	if _, ok := l.ListElems(); ok {
		t.Error("ListElems should fail on open list")
	}
	if got := l.String(); got != "[H | T]" {
		t.Errorf("String = %q", got)
	}
}

func TestEmptyList(t *testing.T) {
	l := List()
	if !l.IsList() {
		t.Error("empty list is a list")
	}
	elems, ok := l.ListElems()
	if !ok || len(elems) != 0 {
		t.Errorf("empty list elems = %v, %v", elems, ok)
	}
	if got := l.String(); got != "[]" {
		t.Errorf("String = %q", got)
	}
}

func TestIsConstAndGround(t *testing.T) {
	ground := Compound("f", Int64(1), Compound("g", Symbol("a")))
	if !ground.IsConst() || !ground.Ground() {
		t.Error("ground compound reported non-ground")
	}
	open := Compound("f", Int64(1), Var("X"))
	if open.IsConst() || open.Ground() {
		t.Error("open compound reported ground")
	}
}

func TestEqualAndCompare(t *testing.T) {
	a := Compound("f", Int64(1), Var("X"))
	b := Compound("f", Int64(1), Var("X"))
	c := Compound("f", Int64(2), Var("X"))
	if !a.Equal(b) {
		t.Error("identical terms not Equal")
	}
	if a.Equal(c) {
		t.Error("different terms Equal")
	}
	if a.Compare(b) != 0 {
		t.Error("Compare(identical) != 0")
	}
	if a.Compare(c) >= 0 {
		t.Error("f(1,X) should sort before f(2,X)")
	}
	if Int64(1).Compare(Float64(1)) == 0 {
		t.Error("kinds distinguish in Compare")
	}
}

func TestVarsCollection(t *testing.T) {
	tm := Compound("f", Var("X"), Compound("g", Var("Y"), Var("X")), Int64(3))
	vars := tm.Vars(nil)
	want := []string{"X", "Y", "X"}
	if !reflect.DeepEqual(vars, want) {
		t.Errorf("Vars = %v, want %v", vars, want)
	}
}

func TestDepthAndSize(t *testing.T) {
	if d := Int64(1).Depth(); d != 0 {
		t.Errorf("const depth = %d", d)
	}
	tm := Compound("f", Compound("g", Compound("h", Int64(1))))
	if d := tm.Depth(); d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	if s := tm.Size(); s != 4 {
		t.Errorf("size = %d, want 4", s)
	}
}

func TestKeyInjectiveOnSamples(t *testing.T) {
	terms := []Term{
		Int64(1), Int64(-1), Float64(1), String_("1"), Symbol("1x"), Var("X1"),
		Compound("f", Int64(1)), Compound("f", Int64(1), Int64(2)),
		Compound("g", Int64(1)), List(Int64(1)), List(Int64(1), Int64(2)),
		Symbol("a"), String_("a"), Var("a_upper"),
	}
	seen := map[string]Term{}
	for _, tm := range terms {
		k := tm.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(tm) {
			t.Errorf("key collision: %v and %v both -> %q", prev, tm, k)
		}
		seen[k] = tm
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Int64(42), "42"},
		{Float64(2.5), "2.5"},
		{Float64(3), "3.0"},
		{String_("a\"b"), `"a\"b"`},
		{Symbol("enemy"), "enemy"},
		{Var("X"), "X"},
		{Compound("f", Int64(1), Symbol("a")), "f(1, a)"},
		{List(Symbol("a"), Var("X")), "[a, X]"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.term.Kind, got, c.want)
		}
	}
}

func TestRenameVars(t *testing.T) {
	tm := Compound("f", Var("X"), Compound("g", Var("Y")), Int64(1))
	r := tm.RenameVars(func(s string) string { return s + "_1" })
	if got := r.String(); got != "f(X_1, g(Y_1), 1)" {
		t.Errorf("renamed = %q", got)
	}
	// Original untouched.
	if got := tm.String(); got != "f(X, g(Y), 1)" {
		t.Errorf("original mutated: %q", got)
	}
}

func TestIsAnonymous(t *testing.T) {
	if !Var("_G1").IsAnonymous() {
		t.Error("_G1 should be anonymous")
	}
	if Var("X").IsAnonymous() {
		t.Error("X should not be anonymous")
	}
}

func TestNumeric(t *testing.T) {
	if v, ok := Int64(7).Numeric(); !ok || v != 7 {
		t.Errorf("Numeric(7) = %v, %v", v, ok)
	}
	if v, ok := Float64(2.5).Numeric(); !ok || v != 2.5 {
		t.Errorf("Numeric(2.5) = %v, %v", v, ok)
	}
	if _, ok := Symbol("a").Numeric(); ok {
		t.Error("symbol should not be numeric")
	}
}

// randTerm generates a random ground-ish term for property tests.
func randTerm(r *rand.Rand, depth int) Term {
	switch r.Intn(6) {
	case 0:
		return Int64(int64(r.Intn(100) - 50))
	case 1:
		return Float64(r.Float64() * 10)
	case 2:
		return Symbol(string(rune('a' + r.Intn(5))))
	case 3:
		return String_(string(rune('p' + r.Intn(5))))
	case 4:
		return Var(string(rune('A' + r.Intn(5))))
	default:
		if depth <= 0 {
			return Int64(int64(r.Intn(10)))
		}
		n := r.Intn(3)
		args := make([]Term, n)
		for i := range args {
			args[i] = randTerm(r, depth-1)
		}
		return Compound(string(rune('f'+r.Intn(3))), args...)
	}
}

type genTerm struct{ T Term }

func (genTerm) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genTerm{T: randTerm(r, 3)})
}

func TestQuickEqualReflexive(t *testing.T) {
	f := func(g genTerm) bool { return g.T.Equal(g.T) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareConsistentWithEqual(t *testing.T) {
	f := func(a, b genTerm) bool {
		eq := a.T.Equal(b.T)
		c := a.T.Compare(b.T)
		return eq == (c == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b genTerm) bool {
		return sign(a.T.Compare(b.T)) == -sign(b.T.Compare(a.T))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b genTerm) bool {
		if a.T.Key() == b.T.Key() {
			return a.T.Equal(b.T)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Tuple keys are fixed byte for byte (routing hashes them), so the
// quoting fast path must agree with strconv.AppendQuote everywhere.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	for _, s := range []string{"", "c7_3", "a b", `q"uote`, `back\slash`, "tab\t", "\x7f", "é", "~ !"} {
		if got, want := string(appendQuote(nil, s)), strconv.Quote(s); got != want {
			t.Errorf("appendQuote(%q) = %s, want %s", s, got, want)
		}
	}
	f := func(s string) bool { return string(appendQuote(nil, s)) == strconv.Quote(s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
