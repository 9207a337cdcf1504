package main

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/magic"
	"repro/internal/datalog/parser"
	"repro/internal/nsim"
	"repro/internal/topo"
)

// replayEvaluate answers goal the way the session answers a cache
// miss — core.ParseGoal, magic.Rewrite, a set-of-derivations
// eval.Maintainer over the goal's base facts, and a ProofTree per
// answer — timing each stage in its own span. The serve replay checks
// its answers against the served ones, so these per-layer numbers
// describe the code the session runs.
func replayEvaluate(tr *tracer, tid int64, prog *ast.Program, goal string, edb []eval.Tuple) ([]string, error) {
	var lit ast.Literal
	var tf *magic.Transformed
	var m *eval.Maintainer
	var answers []string
	var err error
	start := time.Now()
	root := tr.newID()
	stages := []struct {
		name string
		f    func()
	}{
		{"parse", func() { lit, err = core.ParseGoal(prog, goal) }},
		{"magic.rewrite", func() { tf, err = magic.Rewrite(prog, lit) }},
		{"eval.evaluate", func() { m, err = maintain(tf, baseCone(prog, lit.PredKey()), edb) }},
		{"proof.tree", func() {
			for _, a := range m.DB().Tuples(tf.AnswerPred) {
				if _, err = m.ProofTree(a); err != nil {
					return
				}
				answers = append(answers, eval.Tuple{Pred: lit.PredKey(), Args: a.Args}.String())
			}
		}},
	}
	for _, st := range stages {
		if tr.time(tid, root, st.name, st.f); err != nil {
			return nil, err
		}
	}
	tr.record(span{Trace: tid, ID: root, Name: "replay.miss", Note: goal}, start, time.Since(start))
	return answers, nil
}

// maintain evaluates a magic-rewritten program the way the session
// does: fact rules (the magic seed) are inserted as base tuples so
// they cascade, rules that derive a literal from itself are dropped,
// and the base facts in the goal's cone are inserted in key order.
func maintain(tf *magic.Transformed, cone map[string]bool, edb []eval.Tuple) (*eval.Maintainer, error) {
	mprog := ast.NewProgram()
	for k, v := range tf.Program.Base {
		mprog.Base[k] = v
	}
	for k, v := range tf.Program.Windows {
		mprog.Windows[k] = v
	}
	var seeds []eval.Tuple
	for _, r := range tf.Program.Rules {
		if r.IsFact() {
			seeds = append(seeds, eval.Tuple{Pred: r.Head.PredKey(), Args: r.Head.Args}.Keyed())
			continue
		}
		if selfDerivation(r) {
			continue
		}
		mprog.AddRule(r)
	}
	m, err := eval.NewMaintainer(mprog, eval.SetOfDerivations, eval.Options{})
	if err != nil {
		return nil, err
	}
	for _, seed := range seeds {
		if _, err := m.Insert(seed); err != nil {
			return nil, err
		}
	}
	facts := make([]eval.Tuple, 0, len(edb))
	for _, t := range edb {
		if cone[t.Pred] {
			facts = append(facts, t.Keyed())
		}
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].Key() < facts[j].Key() })
	for _, t := range facts {
		if _, err := m.Insert(t); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// selfDerivation reports whether a rule derives its single positive
// body literal verbatim, like m_p_bf(X) :- m_p_bf(X).
func selfDerivation(r *ast.Rule) bool {
	if len(r.Body) != 1 || r.HasAggregates() {
		return false
	}
	b := r.Body[0]
	if b.Negated || b.Builtin || b.PredKey() != r.Head.PredKey() {
		return false
	}
	for i, a := range r.Head.Args {
		if a.Kind != ast.KindVar || b.Args[i].Kind != ast.KindVar || a.Str != b.Args[i].Str {
			return false
		}
	}
	return true
}

// baseCone is the set of base predicates a derived predicate reads
// through its rules, negated or not.
func baseCone(prog *ast.Program, pred string) map[string]bool {
	cone := make(map[string]bool)
	seen := make(map[string]bool)
	var walk func(p string)
	walk = func(p string) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, r := range prog.RulesFor(p) {
			for _, l := range r.Body {
				switch {
				case l.Builtin:
				case prog.IsDerived(l.PredKey()):
					walk(l.PredKey())
				default:
					cone[l.PredKey()] = true
				}
			}
		}
	}
	walk(pred)
	return cone
}

// breakdownRuns is how many bare deployments bareBreakdown times.
const breakdownRuns = 3

// bareBreakdown times the stages snlog.Deploy and the first load go
// through, on bare deployments: topo.Grid plus Finalize
// (setup.topo_ms), core.New plus Start (setup.engine_ms), and
// injecting facts plus running to quiescence (setup.load_ms). Each is
// the median of breakdownRuns deployments.
func bareBreakdown(tr *tracer, gridM int, seed int64, src string, facts []placed) (map[string]float64, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	var topoMs, engineMs, loadMs []float64
	for i := 0; i < breakdownRuns; i++ {
		tid := tr.newID()
		var nw *nsim.Network
		var e *core.Engine
		dGrid := tr.time(tid, 0, "setup.grid", func() { nw = topo.Grid(gridM, nsim.Config{Seed: seed}) })
		dNew := tr.time(tid, 0, "setup.engine_new", func() { e, err = core.New(nw, prog, core.Config{}) })
		if err != nil {
			return nil, err
		}
		dFinal := tr.time(tid, 0, "setup.finalize", nw.Finalize)
		dStart := tr.time(tid, 0, "setup.start", e.Start)
		dLoad := tr.time(tid, 0, "setup.load", func() {
			for _, f := range facts {
				if err = e.Inject(nsim.NodeID(f.node), f.t); err != nil {
					return
				}
			}
			nw.Run(0)
		})
		if err != nil {
			return nil, err
		}
		topoMs = append(topoMs, millis(dGrid+dFinal))
		engineMs = append(engineMs, millis(dNew+dStart))
		loadMs = append(loadMs, millis(dLoad))
	}
	return map[string]float64{
		"setup.topo_ms":   median(topoMs),
		"setup.engine_ms": median(engineMs),
		"setup.load_ms":   median(loadMs),
	}, nil
}
