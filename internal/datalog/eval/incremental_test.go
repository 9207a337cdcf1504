package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datalog/ast"
)

const uncovSrc = `
cov(L, T) :- veh(enemy, L, T), veh(friendly, L2, T), dist(L, L2) <= 5.
uncov(L, T) :- NOT cov(L, T), veh(enemy, L, T).
`

func vehTuple(kind string, x, y, ts int64) Tuple {
	return NewTuple("veh", ast.Symbol(kind),
		ast.Compound("loc", ast.Int64(x), ast.Int64(y)), ast.Int64(ts))
}

func newMaint(t testing.TB, src string, mode Mode) *Maintainer {
	t.Helper()
	m, err := NewMaintainer(mustProg(t, src), mode, Options{})
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	return m
}

func TestInsertDerivesThroughNegation(t *testing.T) {
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, uncovSrc, mode)
			enemy := vehTuple("enemy", 50, 50, 1)
			changes, err := m.Insert(enemy)
			if err != nil {
				t.Fatal(err)
			}
			if len(changes) != 1 || !changes[0].Insert || changes[0].Tuple.Name() != "uncov" {
				t.Fatalf("changes = %v", changes)
			}
			if !m.DB().Contains(NewTuple("uncov", ast.Compound("loc", ast.Int64(50), ast.Int64(50)), ast.Int64(1))) {
				t.Error("uncov missing")
			}
		})
	}
}

func TestInsertIntoNegatedStreamRetracts(t *testing.T) {
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, uncovSrc, mode)
			if _, err := m.Insert(vehTuple("enemy", 0, 0, 1)); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 1 {
				t.Fatal("setup: uncov expected")
			}
			// A friendly vehicle within distance 5 covers the enemy:
			// cov(+) cascades into uncov(-).
			changes, err := m.Insert(vehTuple("friendly", 3, 4, 1))
			if err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 0 {
				t.Errorf("uncov should be retracted; changes = %v", changes)
			}
			if m.DB().Count("cov/2") != 1 {
				t.Error("cov missing")
			}
		})
	}
}

func TestDeleteFromNegatedStreamReinstates(t *testing.T) {
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, uncovSrc, mode)
			enemy := vehTuple("enemy", 0, 0, 1)
			friendly := vehTuple("friendly", 3, 4, 1)
			if _, err := m.Insert(enemy); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Insert(friendly); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 0 {
				t.Fatal("setup: enemy should be covered")
			}
			// Friendly vehicle leaves (tuple expires): uncov returns.
			if _, err := m.Delete(friendly); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("uncov/2") != 1 {
				t.Errorf("uncov should be reinstated; db=%v", m.DB().Tuples("uncov/2"))
			}
		})
	}
}

func TestMultipleDerivationsSurviveSingleDeletion(t *testing.T) {
	// join(X) :- a(X), b(X, Y): two b-tuples give join(1) two derivations;
	// deleting one must keep join(1) alive (the straightforward
	// set-subtraction pitfall of Section IV-A).
	src := `join(X) :- a(X), b(X, Y).`
	for _, mode := range []Mode{SetOfDerivations, Counting} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, src, mode)
			b1 := NewTuple("b", ast.Int64(1), ast.Int64(10))
			b2 := NewTuple("b", ast.Int64(1), ast.Int64(20))
			m.Insert(NewTuple("a", ast.Int64(1)))
			m.Insert(b1)
			m.Insert(b2)
			if m.DB().Count("join/1") != 1 {
				t.Fatal("join(1) expected")
			}
			if _, err := m.Delete(b1); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("join/1") != 1 {
				t.Error("join(1) must survive: second derivation exists")
			}
			if _, err := m.Delete(b2); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("join/1") != 0 {
				t.Error("join(1) must die with its last derivation")
			}
		})
	}
}

func TestRederivationSurvivesAlternativeSupport(t *testing.T) {
	src := `join(X) :- a(X), b(X, Y).`
	m := newMaint(t, src, Rederivation)
	m.Insert(NewTuple("a", ast.Int64(1)))
	m.Insert(NewTuple("b", ast.Int64(1), ast.Int64(10)))
	m.Insert(NewTuple("b", ast.Int64(1), ast.Int64(20)))
	if _, err := m.Delete(NewTuple("b", ast.Int64(1), ast.Int64(10))); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("join/1") != 1 {
		t.Error("rederivation should rediscover join(1)")
	}
	st := m.Stats()
	if st.Rederivations == 0 {
		t.Error("rederivation probes should be counted")
	}
}

func TestSelfJoinDeletion(t *testing.T) {
	src := `pair(X, Y) :- n(X), n(Y), X != Y.`
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, src, mode)
			for i := int64(1); i <= 3; i++ {
				m.Insert(NewTuple("n", ast.Int64(i)))
			}
			if m.DB().Count("pair/2") != 6 {
				t.Fatalf("pairs = %v", m.DB().Tuples("pair/2"))
			}
			m.Delete(NewTuple("n", ast.Int64(2)))
			if m.DB().Count("pair/2") != 2 {
				t.Errorf("after delete pairs = %v", m.DB().Tuples("pair/2"))
			}
		})
	}
}

func TestTransitiveClosureMaintenance(t *testing.T) {
	// Locally non-recursive on a DAG: derivation unfolding has no cycles.
	src := `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, src, mode)
			m.Insert(edge("a", "b"))
			m.Insert(edge("b", "c"))
			m.Insert(edge("c", "d"))
			if m.DB().Count("path/2") != 6 {
				t.Fatalf("paths = %v", m.DB().Tuples("path/2"))
			}
			m.Delete(edge("b", "c"))
			// Remaining: a-b, c-d.
			if m.DB().Count("path/2") != 2 {
				t.Errorf("paths after delete = %v", m.DB().Tuples("path/2"))
			}
		})
	}
}

func TestCountingOverUnderflowOnExactDeltas(t *testing.T) {
	// Repeated insert of the same base tuple is a no-op (set semantics on
	// streams), so counting must not inflate.
	src := `d(X) :- s(X).`
	m := newMaint(t, src, Counting)
	tup := NewTuple("s", ast.Int64(1))
	m.Insert(tup)
	m.Insert(tup) // duplicate
	m.Delete(tup)
	if m.DB().Count("d/1") != 0 {
		t.Error("duplicate base insert inflated count")
	}
}

func TestDuplicateBaseOpsAreNoOps(t *testing.T) {
	m := newMaint(t, uncovSrc, SetOfDerivations)
	enemy := vehTuple("enemy", 1, 1, 1)
	if ch, _ := m.Insert(enemy); len(ch) != 1 {
		t.Fatal("first insert should change")
	}
	if ch, _ := m.Insert(enemy); ch != nil {
		t.Error("duplicate insert should be a no-op")
	}
	if ch, _ := m.Delete(vehTuple("enemy", 9, 9, 9)); ch != nil {
		t.Error("deleting absent tuple should be a no-op")
	}
}

func TestMaintainerStats(t *testing.T) {
	m := newMaint(t, uncovSrc, SetOfDerivations)
	m.Insert(vehTuple("enemy", 0, 0, 1))
	m.Insert(vehTuple("friendly", 1, 1, 1))
	st := m.Stats()
	if st.JoinOps == 0 || st.CascadeSteps == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.DerivationsHeld == 0 {
		t.Error("derivations should be held")
	}
}

// The central correctness property (paper Theorem 3 + Section IV-C): after
// any timeline of insertions and deletions, the incrementally maintained
// database equals full re-evaluation over the surviving base facts — for
// all three maintenance modes.
func TestMaintainerEquivalenceRandomTimeline(t *testing.T) {
	progs := []struct {
		name string
		src  string
		gen  func(r *rand.Rand) Tuple
	}{
		{
			name: "uncov",
			src:  uncovSrc,
			gen: func(r *rand.Rand) Tuple {
				kind := "enemy"
				if r.Intn(2) == 0 {
					kind = "friendly"
				}
				return vehTuple(kind, int64(r.Intn(8)), int64(r.Intn(8)), int64(r.Intn(3)))
			},
		},
		{
			name: "paths",
			src: `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`,
			gen: func(r *rand.Rand) Tuple {
				// DAG edges only (i < j) keep the program locally
				// non-recursive, the class the paper's approach covers.
				i := r.Intn(5)
				j := i + 1 + r.Intn(3)
				return NewTuple("edge", ast.Int64(int64(i)), ast.Int64(int64(j)))
			},
		},
		{
			name: "twojoin",
			src: `
t(X, Z) :- rr(X, Y), ss(Y, Z), NOT ex(X, Z).
out(X) :- t(X, Z), Z > 2.
`,
			gen: func(r *rand.Rand) Tuple {
				switch r.Intn(3) {
				case 0:
					return NewTuple("rr", ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(4))))
				case 1:
					return NewTuple("ss", ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(4))))
				default:
					return NewTuple("ex", ast.Int64(int64(r.Intn(4))), ast.Int64(int64(r.Intn(4))))
				}
			},
		},
	}
	for _, pc := range progs {
		for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
			t.Run(fmt.Sprintf("%s/%s", pc.name, mode), func(t *testing.T) {
				r := rand.New(rand.NewSource(42))
				m := newMaint(t, pc.src, mode)
				live := map[string]Tuple{}
				for step := 0; step < 120; step++ {
					var err error
					if len(live) > 0 && r.Intn(100) < 35 {
						// Delete a random live tuple.
						keys := make([]string, 0, len(live))
						for k := range live {
							keys = append(keys, k)
						}
						k := keys[r.Intn(len(keys))]
						_, err = m.Delete(live[k])
						delete(live, k)
					} else {
						tup := pc.gen(r)
						live[tup.Key()] = tup
						_, err = m.Insert(tup)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				// Full re-evaluation over surviving facts.
				var base []Tuple
				for _, tup := range live {
					base = append(base, tup)
				}
				want := mustEval(t, pc.src, base)
				got := m.DB()
				for _, pred := range want.Predicates() {
					w := want.Tuples(pred)
					g := got.Tuples(pred)
					if len(w) != len(g) {
						t.Fatalf("%s: maintained %d tuples, recomputed %d\nmaint: %v\nfull: %v",
							pred, len(g), len(w), g, w)
					}
					for i := range w {
						if !w[i].Equal(g[i]) {
							t.Fatalf("%s: mismatch at %d: %v vs %v", pred, i, g[i], w[i])
						}
					}
				}
				for _, pred := range got.Predicates() {
					if want.Count(pred) != got.Count(pred) {
						t.Fatalf("%s: extra tuples in maintained db: %v", pred, got.Tuples(pred))
					}
				}
			})
		}
	}
}

func TestMaintainerRejectsAggregates(t *testing.T) {
	_, err := NewMaintainer(mustProg(t, `s(min<D>) :- p(D).`), SetOfDerivations, Options{})
	if err == nil {
		t.Fatal("aggregates should be rejected")
	}
}

// The pinned solvers skip a rule whose other positive subgoal reads an
// empty table, but a deletion's delta still offers the deleted tuple to
// later occurrences of its own predicate: deleting the only tuple of a
// self-join must retract the derivation that joined it with itself.
func TestDeleteLastSelfJoinTuple(t *testing.T) {
	for _, mode := range []Mode{SetOfDerivations, Counting, Rederivation} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMaint(t, "loop(X) :- e(X, Y), e(Y, X).\n", mode)
			e := NewTuple("e", ast.Symbol("a"), ast.Symbol("a"))
			if _, err := m.Insert(e); err != nil {
				t.Fatal(err)
			}
			if m.DB().Count("loop/1") != 1 {
				t.Fatal("setup: loop(a) expected")
			}
			if _, err := m.Delete(e); err != nil {
				t.Fatal(err)
			}
			if n := m.DB().Count("loop/1"); n != 0 {
				t.Errorf("loop/1 holds %d tuples after deleting e(a, a), want 0", n)
			}
		})
	}
}

// Loading base facts before the magic guard that every rule reads skips
// each rule without a join, and inserting the guard afterwards derives
// what inserting it first would have.
func TestEmptyGuardSkipsRules(t *testing.T) {
	src := "p(X, Y) :- g(X), e(X, Y).\n"
	first := newMaint(t, src, SetOfDerivations)
	last := newMaint(t, src, SetOfDerivations)
	var es []Tuple
	for i := 0; i < 50; i++ {
		es = append(es, NewTuple("e", ast.Int64(int64(i%5)), ast.Int64(int64(i))))
	}
	guard := NewTuple("g", ast.Int64(3))
	if _, err := first.Insert(guard); err != nil {
		t.Fatal(err)
	}
	if _, err := first.InsertBatch(es); err != nil {
		t.Fatal(err)
	}
	if _, err := last.InsertBatch(es); err != nil {
		t.Fatal(err)
	}
	if st := last.Stats(); st.JoinOps != 0 || st.ScanOps != 0 {
		t.Errorf("loading under an empty guard did %d joins, %d scans; want none", st.JoinOps, st.ScanOps)
	}
	if _, err := last.Insert(guard); err != nil {
		t.Fatal(err)
	}
	a, b := first.DB().Tuples("p/2"), last.DB().Tuples("p/2")
	if len(a) != 10 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("guard first derived %v, guard last %v", a, b)
	}
}
