package magic

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// TestRewriteDifferential checks the rewrite against full evaluation on
// generated programs: for every derived predicate and every b/f pattern,
// bound with each combination of constants drawn from the base, the
// rewritten program's answers equal the full model's tuples of the
// predicate filtered by the goal. The rewritten program is evaluated
// twice — by the semi-naive Evaluator, and by a set-of-derivations
// Maintainer that loads the base facts before the magic seed, the order
// the serving layer uses.
func TestRewriteDifferential(t *testing.T) {
	goals := 0
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := check.Generate(r)
		p := mustProg(t, g.Src)
		if hasAggregates(p) {
			continue
		}
		var base []eval.Tuple
		for i := 0; i < 24; i++ {
			base = append(base, g.RandomBase(r))
		}
		evFull, err := eval.New(p, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := evFull.Run(base)
		if err != nil {
			t.Fatal(err)
		}
		consts := baseConstants(base)
		for _, pred := range g.Deriveds {
			name, arity := splitKey(t, pred)
			for _, q := range boundGoals(name, arity, consts) {
				goals++
				want := filterGoal(full.Tuples(pred), q)
				tr, err := Rewrite(p, q)
				if err != nil {
					t.Fatalf("seed %d: Rewrite(%s): %v", seed, q, err)
				}
				if got := evaluatorAnswers(t, tr, base); !equalKeys(got, want) {
					t.Fatalf("seed %d, goal %s: Evaluator answers %v, want %v\n%s\n%s",
						seed, q, got, want, g.Src, tr.Program)
				}
				if got := maintainerAnswers(t, tr, base); !equalKeys(got, want) {
					t.Fatalf("seed %d, goal %s: Maintainer answers %v, want %v\n%s\n%s",
						seed, q, got, want, g.Src, tr.Program)
				}
			}
		}
	}
	if goals == 0 {
		t.Fatal("no goals checked")
	}
}

// Bound-first SIP: a goal binding the last argument of left-recursive
// reachability walks back from the constant (reach_fb) instead of
// computing the whole closure (reach_ff).
func TestRewriteBoundFirstNoFreeClosure(t *testing.T) {
	p := mustProg(t, `
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
`)
	tr, err := Rewrite(p, ast.Lit("reach", ast.Var("X"), ast.Symbol("c")))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Program.Rules {
		for _, l := range append([]ast.Literal{r.Head}, r.Body...) {
			if strings.HasSuffix(l.Predicate, "_ff") {
				t.Errorf("rule %s uses %s", r, l.Predicate)
			}
		}
	}
	src := tr.Program.String()
	if want := "m_reach_fb(Y) :- m_reach_fb(Z), link(Y, Z)."; !strings.Contains(src, want) {
		t.Errorf("rewrite lacks %q:\n%s", want, src)
	}
}

func hasAggregates(p *ast.Program) bool {
	for _, r := range p.Rules {
		if r.HasAggregates() {
			return true
		}
	}
	return false
}

func splitKey(t *testing.T, key string) (string, int) {
	t.Helper()
	var arity int
	i := strings.LastIndexByte(key, '/')
	if _, err := fmt.Sscanf(key[i+1:], "%d", &arity); err != nil {
		t.Fatalf("predicate key %q: %v", key, err)
	}
	return key[:i], arity
}

// baseConstants returns the distinct argument values of the base, in
// key order.
func baseConstants(base []eval.Tuple) []ast.Term {
	seen := map[string]ast.Term{}
	for _, b := range base {
		for _, a := range b.Args {
			seen[string(a.AppendKey(nil))] = a
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ast.Term, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// boundGoals enumerates every b/f pattern of pred/arity, each bound
// position taking every constant.
func boundGoals(pred string, arity int, consts []ast.Term) []ast.Literal {
	goals := []ast.Literal{{Predicate: pred}}
	for i := 0; i < arity; i++ {
		var next []ast.Literal
		for _, g := range goals {
			free := append(append([]ast.Term(nil), g.Args...), ast.Var(fmt.Sprintf("V%d", i)))
			next = append(next, ast.Literal{Predicate: pred, Args: free})
			for _, c := range consts {
				bound := append(append([]ast.Term(nil), g.Args...), c)
				next = append(next, ast.Literal{Predicate: pred, Args: bound})
			}
		}
		goals = next
	}
	return goals
}

// filterGoal keeps the tuples agreeing with q on its ground arguments,
// as argument keys.
func filterGoal(ts []eval.Tuple, q ast.Literal) []string {
	var out []string
	for _, t := range ts {
		ok := true
		for i, a := range q.Args {
			if a.Ground() && !a.Equal(t.Args[i]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, argKey(t))
		}
	}
	sort.Strings(out)
	return out
}

func argKey(t eval.Tuple) string {
	var b []byte
	for _, a := range t.Args {
		b = a.AppendKey(b)
		b = append(b, ',')
	}
	return string(b)
}

func answerKeys(ts []eval.Tuple) []string {
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		out = append(out, argKey(t))
	}
	sort.Strings(out)
	return out
}

func evaluatorAnswers(t *testing.T, tr *Transformed, base []eval.Tuple) []string {
	t.Helper()
	ev, err := eval.New(tr.Program, eval.Options{})
	if err != nil {
		t.Fatalf("rewritten program invalid: %v\n%s", err, tr.Program)
	}
	db, err := ev.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	return answerKeys(db.Tuples(tr.AnswerPred))
}

// maintainerAnswers evaluates the rewritten program with its fact rules
// (the magic seed) inserted after the base facts.
func maintainerAnswers(t *testing.T, tr *Transformed, base []eval.Tuple) []string {
	t.Helper()
	prog := ast.NewProgram()
	for k, v := range tr.Program.Base {
		prog.Base[k] = v
	}
	var facts []eval.Tuple
	for _, r := range tr.Program.Rules {
		if r.IsFact() {
			facts = append(facts, eval.Tuple{Pred: r.Head.PredKey(), Args: r.Head.Args})
			continue
		}
		prog.AddRule(r)
	}
	m, err := eval.NewMaintainer(prog, eval.SetOfDerivations, eval.Options{})
	if err != nil {
		t.Fatalf("rewritten program rejected: %v\n%s", err, tr.Program)
	}
	if _, err := m.InsertBatch(base); err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if _, err := m.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	return answerKeys(m.DB().Tuples(tr.AnswerPred))
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
