package serve

import (
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// cone is the extensional dependency cone of a derived predicate: the
// base predicates its derivations can read, split by whether the path
// from the goal crosses a negation.
//
//   - pos: every base predicate reachable from the goal through rule
//     bodies. Inserting or deleting a tuple of one of these can change
//     the goal's answers.
//   - neg: the subset reachable through at least one negated subgoal.
//     For these, even a deletion that is in nobody's support set can
//     CREATE answers (a negation flip), so tuple-level invalidation is
//     unsound and the cache falls back to predicate-level eviction.
//
// A predicate can be in both (one positive path, one negative path);
// neg wins for deletions.
//
// facts is the slice of the session's base-fact ledger the cone reads
// (tuples of pos or neg predicates), in tuple-key order: a cache miss
// loads it into its evaluator as is, with no filtering or sorting.
type cone struct {
	pos   map[string]bool
	neg   map[string]bool
	facts []eval.Tuple
}

// coneOf looks up the precomputed cone for a goal predicate. Open
// builds a cone for every derived predicate, and core.ParseGoal admits
// only derived goals, so the lookup always hits. The map is read-only
// after Open — safe for any number of concurrent readers with no lock;
// the write phase replaces each cone's facts only while it holds the
// session lock exclusively, so callers hold mu (shared is enough).
func (s *Session) coneOf(pred string) *cone { return s.cones[pred] }

// filter returns the ledger facts the cone reads, keeping their order.
func (c *cone) filter(ledger []eval.Tuple) []eval.Tuple {
	var out []eval.Tuple
	for _, t := range ledger {
		if c.pos[t.Pred] || c.neg[t.Pred] {
			out = append(out, t)
		}
	}
	return out
}

// buildCone walks the rule graph from root, tracking negation taint.
// Each derived predicate is visited at most twice (untainted and
// tainted); base predicates (anything without rules) are the leaves.
func buildCone(prog *ast.Program, root string) *cone {
	c := &cone{pos: make(map[string]bool), neg: make(map[string]bool)}
	type state struct {
		pred    string
		tainted bool
	}
	seen := make(map[state]bool)
	var walk func(pred string, tainted bool)
	walk = func(pred string, tainted bool) {
		st := state{pred, tainted}
		if seen[st] {
			return
		}
		seen[st] = true
		for _, r := range prog.RulesFor(pred) {
			for _, l := range r.Body {
				if l.Builtin {
					continue
				}
				child := l.PredKey()
				childTaint := tainted || l.Negated
				if prog.IsDerived(child) {
					walk(child, childTaint)
					continue
				}
				c.pos[child] = true
				if childTaint {
					c.neg[child] = true
				}
			}
		}
	}
	walk(root, false)
	return c
}
