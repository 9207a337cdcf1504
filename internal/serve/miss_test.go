package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// The cold-miss forest: forestChains chains of chainLinks links, each
// link injected at a seeded random node of Grid(6) — the serve-cold
// benchmark's database, 768 goals in all.
const (
	forestChains = 96
	chainLinks   = 4
	forestGrid   = 6
)

// missGoal is a point goal on one chain with its closed-form answer
// and support: reach(vj, X) reads links j..L-1, reach(X, vk) links
// 0..k-1.
type missGoal struct {
	text    string
	pattern string   // "bf" or "fb"
	answers []string // sorted tuple keys
	support []string // sorted link keys
}

// openForest serves the forest with the result cache off, so every
// query is a miss.
func openForest(tb testing.TB) (*Session, []missGoal) {
	tb.Helper()
	s, err := Open(context.Background(), reachSrc, snlog.Grid(forestGrid), Options{
		Deploy:     []snlog.Option{snlog.WithSeed(1)},
		CacheSize:  -1,
		BatchDelay: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(1))
	var goals []missGoal
	for c := 0; c < forestChains; c++ {
		vs := make([]string, chainLinks+1)
		links := make([]string, chainLinks)
		for i := range vs {
			vs[i] = fmt.Sprintf("c%d_%d", c, i)
		}
		for i := range links {
			l := link(vs[i], vs[i+1])
			links[i] = l.Key()
			if err := s.Inject(rng.Intn(forestGrid*forestGrid), l); err != nil {
				tb.Fatal(err)
			}
		}
		reach := func(a, b string) string {
			return eval.NewTuple("reach", ast.Symbol(a), ast.Symbol(b)).Key()
		}
		for j := 0; j < chainLinks; j++ {
			g := missGoal{text: fmt.Sprintf("reach(%s, X)", vs[j]), pattern: "bf"}
			for k := j + 1; k <= chainLinks; k++ {
				g.answers = append(g.answers, reach(vs[j], vs[k]))
			}
			g.support = append(g.support, links[j:]...)
			goals = append(goals, g)
		}
		for k := 1; k <= chainLinks; k++ {
			g := missGoal{text: fmt.Sprintf("reach(X, %s)", vs[k]), pattern: "fb"}
			for j := 0; j < k; j++ {
				g.answers = append(g.answers, reach(vs[j], vs[k]))
			}
			g.support = append(g.support, links[:k]...)
			goals = append(goals, g)
		}
	}
	for i := range goals {
		sort.Strings(goals[i].answers)
		sort.Strings(goals[i].support)
	}
	if _, err := s.Sync(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return s, goals
}

// evaluateGoal runs one miss's evaluation directly, for its support set.
func evaluateGoal(t *testing.T, s *Session, goal string) ([]eval.Tuple, map[string]bool) {
	t.Helper()
	lit, err := core.ParseGoal(s.prog, goal)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	qt := s.beginTrace(0, time.Now())
	answers, support, err := s.evaluate(lit, &qt)
	if err != nil {
		t.Fatal(err)
	}
	return answers, support
}

// Every bf and fb goal of the forest answers its closed form, and its
// support set — what the cache invalidates on — is exactly the links of
// its chain segment, not the chain or the forest.
func TestMissSupportIsChainSegment(t *testing.T) {
	s, goals := openForest(t)
	for _, g := range goals {
		answers, support := evaluateGoal(t, s, g.text)
		var got []string
		for _, a := range answers {
			got = append(got, a.Key())
		}
		sort.Strings(got)
		if !equalStrings(got, g.answers) {
			t.Fatalf("%s answers %v, want %v", g.text, got, g.answers)
		}
		if support == nil {
			t.Fatalf("%s: support degraded to predicate level", g.text)
		}
		var sup []string
		for k := range support {
			sup = append(sup, k)
		}
		sort.Strings(sup)
		if !equalStrings(sup, g.support) {
			t.Fatalf("%s support %v, want %v", g.text, sup, g.support)
		}
	}
	if n := s.Snapshot().Get("serve.fallbacks"); n != 0 {
		t.Fatalf("serve.fallbacks = %d, want 0", n)
	}
}

// A miss costs work proportional to the goal's magic cone, not the
// ledger: bounded allocations and join operations per query, for both
// binding patterns, over the whole forest. A left-to-right rewrite
// turns every fb goal into a whole-forest closure (about 1,540 join
// operations and 50k allocations a miss).
func TestMissCostPins(t *testing.T) {
	const maxAllocs, maxJoins = 2000, 64
	s, goals := openForest(t)
	ctx := context.Background()
	joins, misses := map[string]int64{}, map[string]int64{}
	for _, g := range goals {
		before := s.Snapshot().Get("serve.eval.join_ops")
		if _, err := s.Query(ctx, g.text); err != nil {
			t.Fatal(err)
		}
		joins[g.pattern] += s.Snapshot().Get("serve.eval.join_ops") - before
		misses[g.pattern]++
	}
	for _, p := range []string{"bf", "fb"} {
		perMiss := float64(joins[p]) / float64(misses[p])
		t.Logf("%s: %.1f join ops per miss", p, perMiss)
		if perMiss > maxJoins {
			t.Errorf("%s: %.1f join ops per miss, want <= %d", p, perMiss, maxJoins)
		}
	}
	for _, goal := range []string{"reach(c7_0, X)", "reach(X, c7_4)"} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Query(ctx, goal); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per miss, want <= %d", goal, allocs, maxAllocs)
		}
	}
	if n := s.Snapshot().Get("serve.cache.hits"); n != 0 {
		t.Fatalf("cache off but %d hits", n)
	}
}

// BenchmarkSessionMiss times one cache miss on the forest for each
// binding pattern: the longest segment of a chain from its head (bf)
// and to its tail (fb).
func BenchmarkSessionMiss(b *testing.B) {
	s, _ := openForest(b)
	ctx := context.Background()
	for _, bc := range []struct{ name, goal string }{
		{"bf", "reach(c7_0, X)"},
		{"fb", "reach(X, c7_4)"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			before := s.Snapshot().Get("serve.eval.join_ops")
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(ctx, bc.goal); err != nil {
					b.Fatal(err)
				}
			}
			joins := s.Snapshot().Get("serve.eval.join_ops") - before
			b.ReportMetric(float64(joins)/float64(b.N), "joins/op")
		})
	}
}
