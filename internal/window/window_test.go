package window

import (
	"testing"
	"testing/quick"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

func tup(v int64) eval.Tuple { return eval.NewTuple("s", ast.Int64(v)) }

// visible is the unindexed lookup: every entry of predKey visible at τ
// under window w, in insertion order.
func visible(s *Store, predKey string, tau Stamp, w int64) []*Entry {
	return s.VisibleMatch(predKey, tau, w, nil, nil, nil)
}

func TestStampTotalOrder(t *testing.T) {
	a := Stamp{TS: 1, Node: 0, Seq: 0}
	b := Stamp{TS: 1, Node: 0, Seq: 1}
	c := Stamp{TS: 1, Node: 1, Seq: 0}
	d := Stamp{TS: 2, Node: 0, Seq: 0}
	if !a.Less(b) || !a.Less(c) || !a.Less(d) || !b.Less(c) || !c.Less(d) {
		t.Error("order violated")
	}
	if a.Less(a) {
		t.Error("irreflexivity violated")
	}
}

func TestQuickStampOrderAntisymmetric(t *testing.T) {
	f := func(ts1, ts2 int64, n1, n2 int, s1, s2 int64) bool {
		a := Stamp{TS: ts1, Node: n1, Seq: s1}
		b := Stamp{TS: ts2, Node: n2, Seq: s2}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertVisibleOrdering(t *testing.T) {
	s := NewStore()
	id := Stamp{TS: 10, Node: 1, Seq: 1}
	if !s.Insert(tup(1), id) {
		t.Fatal("insert failed")
	}
	if s.Insert(tup(1), id) {
		t.Error("duplicate insert should report false")
	}
	// Visible only to strictly later stamps.
	if got := visible(s, "s/1", Stamp{TS: 10, Node: 1, Seq: 1}, 0); len(got) != 0 {
		t.Error("visible at own stamp")
	}
	if got := visible(s, "s/1", Stamp{TS: 10, Node: 1, Seq: 2}, 0); len(got) != 1 {
		t.Error("not visible to later stamp")
	}
	if got := visible(s, "s/1", Stamp{TS: 9, Node: 9, Seq: 9}, 0); len(got) != 0 {
		t.Error("visible to earlier stamp")
	}
}

func TestWindowBound(t *testing.T) {
	s := NewStore()
	s.Insert(tup(1), Stamp{TS: 10, Node: 1, Seq: 1})
	// Window 50: visible until TS < 60.
	if got := visible(s, "s/1", Stamp{TS: 59, Node: 2}, 50); len(got) != 1 {
		t.Error("should be inside window")
	}
	if got := visible(s, "s/1", Stamp{TS: 60, Node: 2}, 50); len(got) != 0 {
		t.Error("should have slid out of window")
	}
	// Unbounded.
	if got := visible(s, "s/1", Stamp{TS: 1e9, Node: 2}, 0); len(got) != 1 {
		t.Error("unbounded window should keep it visible")
	}
}

func TestDeletionStampSemantics(t *testing.T) {
	s := NewStore()
	gen := Stamp{TS: 10, Node: 1, Seq: 1}
	s.Insert(tup(1), gen)
	del := Stamp{TS: 30, Node: 1, Seq: 2}
	s.MarkDeleted("s/1", gen, del)
	// An update between generation and deletion still sees the tuple
	// (Theorem 3: "do not have a deletion-timestamp of less than τ").
	if got := visible(s, "s/1", Stamp{TS: 20, Node: 2}, 0); len(got) != 1 {
		t.Error("pre-deletion update must still see the tuple")
	}
	// An update after the deletion does not.
	if got := visible(s, "s/1", Stamp{TS: 31, Node: 2}, 0); len(got) != 0 {
		t.Error("post-deletion update must not see the tuple")
	}
}

func TestDeletionTombstoneBeforeInsert(t *testing.T) {
	// Message reordering: the deletion marker can arrive first.
	s := NewStore()
	gen := Stamp{TS: 10, Node: 1, Seq: 1}
	del := Stamp{TS: 30, Node: 1, Seq: 2}
	s.MarkDeleted("s/1", gen, del)
	// The tombstone alone never matches.
	if got := visible(s, "s/1", Stamp{TS: 20, Node: 2}, 0); len(got) != 0 {
		t.Error("tombstone matched")
	}
	s.Insert(tup(1), gen)
	// Insert after tombstone: the deletion must stick. Note Insert keeps
	// the first entry for the stamp (the tombstone), preserving Del.
	if got := visible(s, "s/1", Stamp{TS: 40, Node: 2}, 0); len(got) != 0 {
		t.Error("deletion lost after reordered insert")
	}
}

func TestExpiry(t *testing.T) {
	s := NewStore()
	s.Insert(tup(1), Stamp{TS: 10, Node: 1, Seq: 1})
	s.Insert(tup(2), Stamp{TS: 100, Node: 1, Seq: 2})
	if n := s.Expire(150, 60); n != 1 {
		t.Errorf("expired %d, want 1", n)
	}
	if s.Count("s/1") != 1 {
		t.Errorf("count = %d", s.Count("s/1"))
	}
	// Retention 0 disables expiry.
	if n := s.Expire(1e9, 0); n != 0 {
		t.Error("retention 0 must not expire")
	}
}

func TestExpirePredScoped(t *testing.T) {
	s := NewStore()
	s.Insert(eval.NewTuple("a", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 1})
	s.Insert(eval.NewTuple("b", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 2})
	s.ExpirePred("a/1", 100, 50)
	if s.Count("a/1") != 0 || s.Count("b/1") != 1 {
		t.Errorf("a=%d b=%d", s.Count("a/1"), s.Count("b/1"))
	}
}

func TestAllSkipsDeleted(t *testing.T) {
	s := NewStore()
	g1 := Stamp{TS: 1, Node: 1, Seq: 1}
	g2 := Stamp{TS: 2, Node: 1, Seq: 2}
	s.Insert(tup(1), g1)
	s.Insert(tup(2), g2)
	s.MarkDeleted("s/1", g1, Stamp{TS: 3, Node: 1, Seq: 3})
	all := s.All("s/1")
	if len(all) != 1 || all[0].Tuple.Args[0].Int != 2 {
		t.Errorf("All = %v", all)
	}
}

func TestTotalCount(t *testing.T) {
	s := NewStore()
	s.Insert(eval.NewTuple("a", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 1})
	s.Insert(eval.NewTuple("b", ast.Int64(1)), Stamp{TS: 0, Node: 1, Seq: 2})
	if s.TotalCount() != 2 {
		t.Errorf("TotalCount = %d", s.TotalCount())
	}
}

func TestVisibleDeterministicOrder(t *testing.T) {
	s := NewStore()
	for i := int64(0); i < 10; i++ {
		s.Insert(tup(i), Stamp{TS: i, Node: 1, Seq: i})
	}
	tau := Stamp{TS: 100, Node: 2}
	a := visible(s, "s/1", tau, 0)
	b := visible(s, "s/1", tau, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("iteration order not deterministic")
		}
	}
}
