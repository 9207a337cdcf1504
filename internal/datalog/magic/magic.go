// Package magic implements the magic-set transformation used by the
// system architecture (Figure 2 of the paper) to optimize bottom-up
// evaluation of a deductive program with respect to a query: only facts
// relevant to the query's bound arguments are derived.
//
// The transformation adorns derived predicates with b/f (bound/free)
// argument patterns, introduces magic predicates carrying binding
// tuples, and seeds them from the query constants. Predicates reached
// through negation are kept unadorned (evaluated fully), which keeps the
// rewrite sound for stratified programs.
//
// Bindings pass sideways in bound-first order, not left to right: each
// rule body is adorned by repeatedly taking the positive relational
// literal with the most bound arguments (lowest body index on ties, the
// rule analysis/sip.go ranks join order by), starting from the head's
// bound variables. A builtin or negated literal is placed right after
// every positive literal that precedes it in source order, so its
// variables are at least as bound as they were in the source. The order
// decides which adornments exist: for
//
//	reach(X, Z) :- reach(X, Y), link(Y, Z).
//
// the goal reach(X, c) binds Z, so link(Y, Z) goes first, binds Y, and
// the recursive call becomes reach_fb with the magic rule
// m_reach_fb(Y) :- m_reach_fb(Z), link(Y, Z) — a walk back from c —
// instead of a reach_ff call that derives the whole closure.
package magic

import (
	"fmt"
	"strings"

	"repro/internal/datalog/ast"
)

// Transformed is the result of a magic-set rewrite.
type Transformed struct {
	// Program is the rewritten program (adorned + magic + passthrough
	// rules). Base predicate declarations are carried over.
	Program *ast.Program
	// AnswerPred is the adorned predicate key holding the query answers.
	AnswerPred string
	// MagicSeed is the seed fact asserted for the query bindings.
	MagicSeed ast.Literal
}

// Rewrite transforms p for the given query literal. Arguments of the
// query that are ground become bound; variables stay free. The query
// predicate must be derived (rewriting a base predicate is pointless).
func Rewrite(p *ast.Program, query ast.Literal) (*Transformed, error) {
	qKey := query.PredKey()
	if !p.IsDerived(qKey) {
		return nil, fmt.Errorf("magic: query predicate %s is not derived", qKey)
	}
	for _, r := range p.Rules {
		if r.HasAggregates() {
			return nil, fmt.Errorf("magic: aggregates are not supported (rule %d)", r.ID)
		}
	}
	ad := adornmentOf(query)
	t := &transformer{
		src:     p,
		out:     ast.NewProgram(),
		done:    make(map[string]bool),
		full:    make(map[string]bool),
		answers: adornedName(query.Predicate, ad),
	}
	for k, v := range p.Base {
		t.out.Base[k] = v
	}
	for k, v := range p.Windows {
		t.out.Windows[k] = v
	}
	if err := t.adornPredicate(query.Predicate, len(query.Args), ad); err != nil {
		return nil, err
	}
	// Seed the magic predicate with the query's bound constants.
	var seedArgs []ast.Term
	for i, a := range query.Args {
		if ad[i] == 'b' {
			seedArgs = append(seedArgs, a)
		}
	}
	seed := ast.Lit(magicName(query.Predicate, ad), seedArgs...)
	t.out.AddRule(&ast.Rule{Head: seed})
	// Answer projection: the adorned predicate holds answers for every
	// magic-reachable binding; select only the query's own binding.
	ansName := "ans_" + query.Predicate
	ansBody := ast.Literal{Predicate: adornedName(query.Predicate, ad), Args: query.Args}
	t.out.AddRule(&ast.Rule{
		Head: ast.Literal{Predicate: ansName, Args: query.Args},
		Body: []ast.Literal{ansBody},
	})
	answerKey := fmt.Sprintf("%s/%d", ansName, len(query.Args))
	t.out.Queries = append(t.out.Queries, answerKey)
	return &Transformed{Program: t.out, AnswerPred: answerKey, MagicSeed: seed}, nil
}

// adornmentOf derives the b/f pattern from a query literal: ground
// arguments are bound.
func adornmentOf(q ast.Literal) string {
	var b strings.Builder
	for _, a := range q.Args {
		if a.Ground() {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

func adornedName(pred, ad string) string {
	if ad == "" {
		return pred
	}
	return pred + "_" + ad
}

func magicName(pred, ad string) string {
	return "m_" + pred + "_" + ad
}

type transformer struct {
	src     *ast.Program
	out     *ast.Program
	done    map[string]bool // adorned predicates already generated ("pred/arity/ad")
	full    map[string]bool // predicates copied unadorned
	answers string
}

// adornPredicate generates adorned and magic rules for pred with the
// given adornment.
func (t *transformer) adornPredicate(pred string, arity int, ad string) error {
	key := fmt.Sprintf("%s/%d/%s", pred, arity, ad)
	if t.done[key] {
		return nil
	}
	t.done[key] = true
	predKey := fmt.Sprintf("%s/%d", pred, arity)
	rules := t.src.RulesFor(predKey)
	if len(rules) == 0 {
		return fmt.Errorf("magic: no rules for derived predicate %s", predKey)
	}
	for _, r := range rules {
		if err := t.adornRule(r, ad); err != nil {
			return err
		}
	}
	return nil
}

// adornRule rewrites one rule under a head adornment, visiting the body
// in bound-first order (see the package comment). The rewritten body
// lists the literals in that order after the magic guard.
func (t *transformer) adornRule(r *ast.Rule, ad string) error {
	head := r.Head
	// Bound variables: those in bound head argument positions.
	bound := make(map[string]bool)
	var magicArgs []ast.Term
	for i, a := range head.Args {
		if i < len(ad) && ad[i] == 'b' {
			markBound(a.Vars(nil), bound)
			magicArgs = append(magicArgs, a)
		}
	}
	newHead := ast.Literal{Predicate: adornedName(head.Predicate, ad), Args: head.Args}
	magicLit := ast.Lit(magicName(head.Predicate, ad), magicArgs...)

	var newBody []ast.Literal
	if strings.ContainsRune(ad, 'b') {
		newBody = append(newBody, magicLit)
	}
	placed := make([]bool, len(r.Body))
	for i := nextLiteral(r.Body, placed, bound); i >= 0; i = nextLiteral(r.Body, placed, bound) {
		placed[i] = true
		lit, err := t.adornLiteral(r.Body[i], bound, newBody)
		if err != nil {
			return err
		}
		newBody = append(newBody, lit)
	}
	t.out.AddRule(&ast.Rule{Head: newHead, Body: newBody, Line: r.Line})
	return nil
}

// nextLiteral returns the body literal to adorn next, or -1 when every
// literal is placed: a builtin or negated literal as soon as every
// positive literal before it in source order is placed, otherwise the
// unplaced positive relational literal with the most fully bound
// arguments, lowest index on ties.
func nextLiteral(body []ast.Literal, placed []bool, bound map[string]bool) int {
	for i, l := range body {
		if placed[i] {
			continue
		}
		if l.Builtin || l.Negated {
			return i
		}
		break
	}
	best, bestScore := -1, -1
	for i, l := range body {
		if placed[i] || l.Builtin || l.Negated {
			continue
		}
		score := 0
		for _, a := range l.Args {
			if allBound(a.Vars(nil), bound) {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// adornLiteral rewrites one body literal given the variables bound so
// far and the rewritten literals placed before it (the prefix a magic
// rule for it is built from), then marks the variables it binds. It
// returns the literal to place in the rewritten body.
func (t *transformer) adornLiteral(l ast.Literal, bound map[string]bool, prefix []ast.Literal) (ast.Literal, error) {
	if l.Builtin {
		// = / is bind their variables for adornment purposes.
		if !l.Negated && (l.Predicate == "=" || l.Predicate == "is") {
			lv := l.Args[0].Vars(nil)
			rv := l.Args[1].Vars(nil)
			if allBound(lv, bound) {
				markBound(rv, bound)
			}
			if allBound(rv, bound) {
				markBound(lv, bound)
			}
		}
		return l, nil
	}
	if l.Negated {
		// Negated subgoals are evaluated against the fully-computed
		// original predicate.
		if t.src.IsDerived(l.PredKey()) {
			if err := t.copyFull(l.PredKey()); err != nil {
				return l, err
			}
		}
		return l, nil
	}
	if !t.src.IsDerived(l.PredKey()) {
		markBound(l.Vars(nil), bound)
		return l, nil
	}
	// Derived: adorn by current bindings.
	var subAd strings.Builder
	var subMagicArgs []ast.Term
	for _, a := range l.Args {
		if allBound(a.Vars(nil), bound) {
			subAd.WriteByte('b')
			subMagicArgs = append(subMagicArgs, a)
		} else {
			subAd.WriteByte('f')
		}
	}
	sa := subAd.String()
	if strings.ContainsRune(sa, 'b') {
		// Magic rule: m_q_sa(boundArgs) :- prefix.
		t.out.AddRule(&ast.Rule{
			Head: ast.Lit(magicName(l.Predicate, sa), subMagicArgs...),
			Body: append([]ast.Literal(nil), prefix...),
		})
	}
	markBound(l.Vars(nil), bound)
	if err := t.adornPredicate(l.Predicate, len(l.Args), sa); err != nil {
		return l, err
	}
	return ast.Literal{Predicate: adornedName(l.Predicate, sa), Args: l.Args}, nil
}

// copyFull copies pred's original rules (and transitively everything it
// depends on) unadorned into the output.
func (t *transformer) copyFull(predKey string) error {
	if t.full[predKey] {
		return nil
	}
	t.full[predKey] = true
	for _, r := range t.src.RulesFor(predKey) {
		body := make([]ast.Literal, len(r.Body))
		copy(body, r.Body)
		t.out.AddRule(&ast.Rule{Head: r.Head, Body: body, Line: r.Line})
		for _, l := range r.Body {
			if !l.Builtin && t.src.IsDerived(l.PredKey()) {
				if err := t.copyFull(l.PredKey()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func allBound(vars []string, bound map[string]bool) bool {
	for _, v := range vars {
		if !bound[v] {
			return false
		}
	}
	return true
}

func markBound(vars []string, bound map[string]bool) {
	for _, v := range vars {
		bound[v] = true
	}
}
