package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

const reachSrc = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
.query reach/2.
`

const negSrc = `
.base node/1.
.base down/1.
ok(X) :- node(X), NOT down(X).
.query ok/1.
`

func openSession(t *testing.T, src string, opts Options) *Session {
	t.Helper()
	if len(opts.Deploy) == 0 {
		opts.Deploy = []snlog.Option{snlog.WithSeed(7)}
	}
	s, err := Open(context.Background(), src, snlog.Grid(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func link(a, b string) eval.Tuple {
	return eval.NewTuple("link", ast.Symbol(a), ast.Symbol(b))
}

func answers(t *testing.T, s *Session, goal string) []eval.Tuple {
	t.Helper()
	out, err := s.Query(context.Background(), goal)
	if err != nil {
		t.Fatalf("Query(%q): %v", goal, err)
	}
	return out
}

// A repeated identical query must be served from the provenance-keyed
// cache with zero evaluation work: the hit counter moves, the eval
// counters do not.
func TestQueryCacheHitZeroEvalWork(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c"), link("x", "y")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	got := answers(t, s, "reach(a, X)")
	if len(got) != 2 {
		t.Fatalf("reach(a, X) = %v, want 2 answers", got)
	}
	snap1 := s.Snapshot()
	if snap1.Get("serve.cache.misses") != 1 || snap1.Get("serve.cache.hits") != 0 {
		t.Fatalf("after first query: hits=%d misses=%d", snap1.Get("serve.cache.hits"), snap1.Get("serve.cache.misses"))
	}
	if snap1.Get("serve.eval.inserts") == 0 {
		t.Fatal("first query did no evaluation work")
	}

	// Variable renaming must not defeat the cache.
	again := answers(t, s, "reach(a, Z)")
	if len(again) != 2 {
		t.Fatalf("repeat = %v", again)
	}
	snap2 := s.Snapshot()
	if snap2.Get("serve.cache.hits") != 1 {
		t.Errorf("repeat query not served from cache: hits=%d", snap2.Get("serve.cache.hits"))
	}
	for _, c := range []string{"serve.eval.inserts", "serve.eval.join_ops", "serve.eval.cascade_steps"} {
		if snap2.Get(c) != snap1.Get(c) {
			t.Errorf("%s moved on a cache hit: %d -> %d", c, snap1.Get(c), snap2.Get(c))
		}
	}
	if snap2.Get("serve.queries") != 2 {
		t.Errorf("serve.queries = %d, want 2", snap2.Get("serve.queries"))
	}
	if snap2.Get("serve.query_latency.count") != 2 {
		t.Errorf("latency histogram count = %d, want 2", snap2.Get("serve.query_latency.count"))
	}
}

// A deletion inside the goal's provenance subtree evicts the entry and
// the re-query sees the shrunken answer set; a deletion of the same
// predicate OUTSIDE the recorded support keeps the entry cached.
func TestDeletionInvalidation(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c"), link("x", "y")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 2 {
		t.Fatalf("reach(a, X) = %v", got)
	}

	// link(x, y) shares the predicate but no proof with reach(a, X):
	// tuple-level precision must keep the entry.
	if err := s.DeleteAt(100, 0, link("x", "y")); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 2 {
		t.Fatalf("after unrelated deletion: %v", got)
	}
	snap := s.Snapshot()
	if snap.Get("serve.cache.hits") != 1 {
		t.Errorf("unrelated deletion evicted the entry: hits=%d evictions=%d",
			snap.Get("serve.cache.hits"), snap.Get("serve.cache.evictions"))
	}

	// link(b, c) supports reach(a, c): the entry must go and the
	// re-query must re-evaluate.
	if err := s.DeleteAt(200, 0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	got := answers(t, s, "reach(a, X)")
	if len(got) != 1 || got[0].Args[1].Str != "b" {
		t.Fatalf("after supporting deletion: %v, want [reach(a,b)]", got)
	}
	snap = s.Snapshot()
	if snap.Get("serve.cache.misses") != 2 {
		t.Errorf("supporting deletion did not force re-evaluation: misses=%d", snap.Get("serve.cache.misses"))
	}
	if snap.Get("serve.cache.evictions") == 0 {
		t.Error("supporting deletion recorded no eviction")
	}
}

// An insertion into the goal's positive cone must evict even when no
// recorded proof mentions it: new facts create new answers.
func TestInsertionEvicts(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 1 {
		t.Fatalf("reach(a, X) = %v", got)
	}
	if err := s.Inject(0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	got := answers(t, s, "reach(a, X)")
	if len(got) != 2 {
		t.Fatalf("after insert: %v, want 2 answers", got)
	}
	if s.Snapshot().Get("serve.cache.hits") != 0 {
		t.Error("insert into the positive cone did not evict")
	}
}

// Deleting a fact of a negation-tainted predicate can CREATE answers;
// the cache must evict predicate-wide even though the tuple appears in
// no recorded proof (a surviving proof of ok(b) never mentions
// down(a)).
func TestNegationFlipEvicts(t *testing.T) {
	s := openSession(t, negSrc, Options{})
	node := func(x string) eval.Tuple { return eval.NewTuple("node", ast.Symbol(x)) }
	down := func(x string) eval.Tuple { return eval.NewTuple("down", ast.Symbol(x)) }
	for _, f := range []eval.Tuple{node("a"), node("b"), down("a")} {
		if err := s.Inject(0, f); err != nil {
			t.Fatal(err)
		}
	}
	if got := answers(t, s, "ok(X)"); len(got) != 1 || got[0].Args[0].Str != "b" {
		t.Fatalf("ok(X) = %v, want [ok(b)]", got)
	}
	// The flip: removing down(a) makes ok(a) true.
	if err := s.DeleteAt(100, 0, down("a")); err != nil {
		t.Fatal(err)
	}
	got := answers(t, s, "ok(X)")
	if len(got) != 2 {
		t.Fatalf("after negation flip: %v, want [ok(a) ok(b)]", got)
	}
	if s.Snapshot().Get("serve.cache.hits") != 0 {
		t.Error("negation-tainted deletion served a stale cached answer")
	}
}

// Ground and repeated-variable binding patterns get their own cache
// entries and their own (correct) answers.
func TestQueryBindingPatterns(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "a")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	if got := answers(t, s, "reach(a, a)"); len(got) != 1 {
		t.Errorf("ground query reach(a, a) = %v", got)
	}
	if got := answers(t, s, "reach(X, X)"); len(got) != 2 {
		t.Errorf("reach(X, X) = %v, want [reach(a,a) reach(b,b)]", got)
	}
	if got := answers(t, s, "reach(X, Y)"); len(got) != 4 {
		t.Errorf("reach(X, Y) = %v, want all 4", got)
	}
	if s.cacheLen() != 3 {
		t.Errorf("cache entries = %d, want 3 distinct binding patterns", s.cacheLen())
	}
}

// Validation failures surface the shared typed sentinels.
func TestQueryTypedErrors(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	ctx := context.Background()
	cases := []struct {
		goal string
		want error
	}{
		{"link(a, X)", snlog.ErrBasePredicate},
		{"reach(X)", snlog.ErrArity},
		{"ghost(X)", snlog.ErrUnknownPredicate},
		{"reach(X, Y) :- link(X, Y)", snlog.ErrBadGoal},
	}
	for _, c := range cases {
		if _, err := s.Query(ctx, c.goal); !errors.Is(err, c.want) {
			t.Errorf("Query(%q) = %v, want errors.Is(%v)", c.goal, err, c.want)
		}
	}
	if err := s.Inject(0, eval.NewTuple("reach", ast.Symbol("a"), ast.Symbol("b"))); !errors.Is(err, snlog.ErrDerivedPredicate) {
		t.Errorf("Inject derived = %v", err)
	}
	if err := s.Inject(-1, link("a", "b")); !errors.Is(err, snlog.ErrBadNode) {
		t.Errorf("Inject bad node = %v", err)
	}
	if _, err := s.Subscribe("link/2"); !errors.Is(err, snlog.ErrBasePredicate) {
		t.Errorf("Subscribe base = %v", err)
	}
	if _, err := s.Subscribe("ghost/1"); !errors.Is(err, snlog.ErrUnknownPredicate) {
		t.Errorf("Subscribe unknown = %v", err)
	}
	if _, err := s.Explain(ctx, "reach(a, X)"); !errors.Is(err, core.ErrNotGround) {
		t.Errorf("Explain non-ground = %v", err)
	}
}

func TestExplainGroundGoal(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := s.Explain(context.Background(), "reach(a, c)")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if tree == nil || len(tree.Derivs) == 0 {
		t.Fatalf("Explain returned empty tree: %+v", tree)
	}
}

func TestSubscribeDelivery(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Baseline is the state at subscribe time: reach(a,b) is already
	// derived, so nothing is pending.
	select {
	case u := <-sub.C():
		t.Fatalf("unexpected update before change: %+v", u)
	default:
	}
	if err := s.Inject(0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for len(got) < 2 {
		select {
		case u := <-sub.C():
			if !u.Insert {
				t.Fatalf("unexpected deletion update: %+v", u)
			}
			got[u.Tuple.Key()] = true
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for updates, got %v", got)
		}
	}
	// And a deletion shows up as a retraction.
	if err := s.DeleteAt(100, 0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	deletions := 0
	for done := false; !done; {
		select {
		case u := <-sub.C():
			if !u.Insert {
				deletions++
			}
		case <-time.After(time.Second):
			done = true
		}
	}
	if deletions == 0 {
		t.Error("no retraction delivered after deletion")
	}
}

// One flush that changes 200 derived tuples reaches a subscriber that
// is not reading during the flush: every update fits the subscription
// buffer and none is dropped.
func TestSubscribeFlushBurstNoDrops(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 512, BatchDelay: -1})
	sub, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const burst = 200
	for i := 0; i < burst; i++ {
		if err := s.Inject(i%9, link(fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Get("serve.batch.flushes"); got != 1 {
		t.Fatalf("flushes = %d, want one flush for the burst", got)
	}
	if d := s.Snapshot().Get("serve.subs.dropped"); d != 0 {
		t.Fatalf("serve.subs.dropped = %d, want 0", d)
	}
	if n := len(sub.C()); n != burst {
		t.Fatalf("subscriber holds %d updates, want %d", n, burst)
	}
	for i := 0; i < burst; i++ {
		if u := <-sub.C(); !u.Insert || u.Tuple.Pred != "reach/2" {
			t.Fatalf("update %d = %+v, want a reach/2 insertion", i, u)
		}
	}
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	s := openSession(t, reachSrc, Options{CacheSize: -1})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := answers(t, s, "reach(a, X)"); len(got) != 1 {
			t.Fatalf("query %d: %v", i, got)
		}
	}
	snap := s.Snapshot()
	if snap.Get("serve.cache.hits") != 0 || snap.Get("serve.cache.misses") != 3 {
		t.Errorf("disabled cache: hits=%d misses=%d", snap.Get("serve.cache.hits"), snap.Get("serve.cache.misses"))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard = the PR-8 global-LRU semantics this test pins.
	s := openSession(t, reachSrc, Options{CacheSize: 2})
	s.cache = newShardedCache(2, 1, s.evictions)
	for _, l := range []eval.Tuple{link("a", "b"), link("b", "c"), link("c", "d")} {
		if err := s.Inject(0, l); err != nil {
			t.Fatal(err)
		}
	}
	answers(t, s, "reach(a, X)")
	answers(t, s, "reach(b, X)")
	answers(t, s, "reach(c, X)") // evicts reach(a, X)
	if s.cacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", s.cacheLen())
	}
	answers(t, s, "reach(a, X)") // miss again
	snap := s.Snapshot()
	if snap.Get("serve.cache.misses") != 4 {
		t.Errorf("misses = %d, want 4 (LRU evicted the oldest)", snap.Get("serve.cache.misses"))
	}
}

func TestClosedSession(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	sub, err := s.Subscribe("reach/2")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-sub.C(); open {
		t.Error("subscription channel still open after Close")
	}
	if _, err := s.Query(context.Background(), "reach(a, X)"); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close = %v", err)
	}
	if err := s.Inject(0, link("a", "b")); !errors.Is(err, ErrClosed) {
		t.Errorf("Inject after Close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestQueryContextCancelled(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Query(ctx, "reach(a, X)"); !errors.Is(err, context.Canceled) {
		t.Errorf("Query with cancelled ctx = %v", err)
	}
}

// Many goroutine "clients" interleaving queries, injections, deletions
// and subscriptions against one session. Run under -race; correctness
// of the final answer is checked after the storm settles.
func TestConcurrentClients(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	const clients = 8
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			a := fmt.Sprintf("c%d", id)
			b := fmt.Sprintf("c%d", (id+1)%clients)
			sub, err := s.Subscribe("reach/2")
			if err != nil {
				t.Errorf("client %d subscribe: %v", id, err)
				return
			}
			defer sub.Close()
			for j := 0; j < 10; j++ {
				if err := s.Inject(id%9, link(a, b)); err != nil {
					t.Errorf("client %d inject: %v", id, err)
				}
				if _, err := s.Query(ctx, fmt.Sprintf("reach(%s, X)", a)); err != nil {
					t.Errorf("client %d query: %v", id, err)
				}
				if j%3 == 2 {
					if err := s.DeleteAt(int64(1000+100*j), id%9, link(a, b)); err != nil {
						t.Errorf("client %d delete: %v", id, err)
					}
				}
				// Drain without blocking so the buffer doesn't fill.
				for drained := false; !drained; {
					select {
					case <-sub.C():
					default:
						drained = true
					}
				}
			}
		}(i)
	}
	wg.Wait()
	// Every client ends its loop with the edge live (last delete at
	// j==8, re-injected at j==9): full ring reachability.
	got := answers(t, s, "reach(c0, X)")
	if len(got) != clients {
		t.Errorf("final reach(c0, X) = %d answers, want %d (full ring)", len(got), clients)
	}
	snap := s.Snapshot()
	if q := snap.Get("serve.queries"); q != int64(clients*10+1) {
		t.Errorf("serve.queries = %d, want %d", q, clients*10+1)
	}
}

// The magic path must agree with the engine's own derived state (the
// fallback path) on every binding pattern.
func TestMagicAgreesWithEngine(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	edges := []eval.Tuple{
		link("a", "b"), link("b", "c"), link("c", "a"), link("d", "e"),
	}
	for i, l := range edges {
		if err := s.Inject(i%9, l); err != nil {
			t.Fatal(err)
		}
	}
	for _, goal := range []string{"reach(a, X)", "reach(X, e)", "reach(X, Y)", "reach(d, e)", "reach(e, d)"} {
		got := answers(t, s, goal)
		lit, err := core.ParseGoal(s.prog, goal)
		if err != nil {
			t.Fatal(err)
		}
		want := core.MatchGoal(lit, s.c.Results("reach/2"))
		if len(got) != len(want) {
			t.Errorf("%s: magic path %d answers, engine %d", goal, len(got), len(want))
		}
	}
}

// cacheLen exposes the live entry count to tests.
func (s *Session) cacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// Writes coalesce: BatchSize writes trigger exactly one apply+sync
// (deadline disabled so the count is deterministic), and the batch
// counters record one size-triggered flush of that many writes.
func TestWriteBatchingCoalescesSyncs(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 8, BatchDelay: -1})
	for i := 0; i < 8; i++ {
		if err := s.Inject(0, link(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if lag := s.Lag(); lag != 0 {
		t.Fatalf("lag after full batch = %d, want 0 (size-triggered flush)", lag)
	}
	snap := s.Snapshot()
	if got := snap.Get("serve.batch.flushes"); got != 1 {
		t.Errorf("serve.batch.flushes = %d, want 1", got)
	}
	if got := snap.Get("serve.batch.flush.size"); got != 1 {
		t.Errorf("serve.batch.flush.size = %d, want 1", got)
	}
	if got := snap.Get("serve.batch.writes"); got != 8 {
		t.Errorf("serve.batch.writes = %d, want 8", got)
	}
	if got := snap.Get("serve.batch.size.count"); got != 1 {
		t.Errorf("batch-size histogram count = %d, want 1", got)
	}
	// The batch is applied: a fresh query sees the whole chain.
	if got := answers(t, s, "reach(n0, X)"); len(got) != 8 {
		t.Errorf("reach(n0, X) = %d answers, want 8", len(got))
	}
}

// Exact repeats of an earlier insert in the same batch are elided
// before apply — a redundant retransmission buys no cluster work —
// while repeats of a key that is also deleted in the batch are
// applied verbatim (stamp order matters there).
func TestBatchElidesRedundantRepeats(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 8, BatchDelay: -1})
	ctx := context.Background()
	// 6 redundant repeats of the same (node, fact) write + 2 distinct
	// writes fill one batch of 8.
	for i := 0; i < 6; i++ {
		if err := s.Inject(0, link("a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Inject(0, link("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(1, link("a", "b")); err != nil { // different source node: kept
		t.Fatal(err)
	}
	if lag := s.Lag(); lag != 0 {
		t.Fatalf("lag after full batch = %d, want 0", lag)
	}
	snap := s.Snapshot()
	if got := snap.Get("serve.batch.elided"); got != 5 {
		t.Errorf("serve.batch.elided = %d, want 5 (6 repeats at node 0 keep the first)", got)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 2 {
		t.Errorf("reach(a, X) = %d answers, want 2", len(got))
	}

	// A key that is also deleted in the batch is exempt: collapsing
	// insert;insert;delete would change which generation stamp the
	// deletion removes.
	now, err := s.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pre := s.Snapshot().Get("serve.batch.elided")
	if err := s.Inject(0, link("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(0, link("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteAt(now+1, 0, link("c", "d")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Get("serve.batch.elided"); got != pre {
		t.Errorf("serve.batch.elided moved %d -> %d on a deleted key, want unchanged", pre, got)
	}
}

// A fresh query (maxLag 0) forces the in-flight batch through; a
// stale query answers from the last quiesced snapshot and reports its
// lag honestly.
func TestQueryStaleServesSnapshot(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 64, BatchDelay: -1})
	ctx := context.Background()
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, s, "reach(a, X)"); len(got) != 1 { // fresh: flushes
		t.Fatalf("reach(a, X) = %v", got)
	}
	if err := s.Inject(0, link("b", "c")); err != nil { // buffered
		t.Fatal(err)
	}
	got, fr, err := s.QueryStale(ctx, "reach(a, X)", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("stale answer = %v, want the pre-write snapshot (1 tuple)", got)
	}
	if fr.Lag != 1 {
		t.Errorf("stale freshness lag = %d, want 1", fr.Lag)
	}
	if s.Snapshot().Get("serve.stale.served") != 1 {
		t.Error("serve.stale.served did not count the stale answer")
	}
	// Bounded staleness: lag 1 > maxLag 0 forces the flush.
	got, fr, err = s.QueryStale(ctx, "reach(a, X)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || fr.Lag != 0 {
		t.Errorf("fresh query = %d answers lag %d, want 2 answers lag 0", len(got), fr.Lag)
	}
	if s.Snapshot().Get("serve.batch.flush.fresh") == 0 {
		t.Error("freshness-bounded query recorded no fresh-triggered flush")
	}
}

// The deadline flusher applies a lone write without any query or sync
// forcing it.
func TestBatchDeadlineFlush(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 1024, BatchDelay: 2 * time.Millisecond})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Lag() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("write still buffered after 2s: lag=%d", s.Lag())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Snapshot().Get("serve.batch.flush.deadline") == 0 {
		t.Error("no deadline-triggered flush recorded")
	}
	// Served from the snapshot without any further flush.
	got, fr, err := s.QueryStale(context.Background(), "reach(a, X)", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || fr.Lag != 0 {
		t.Errorf("after deadline flush: %d answers lag %d, want 1 answer lag 0", len(got), fr.Lag)
	}
}

// The sharded cache keeps the total capacity bound (per-shard caps sum
// to >= CacheSize, each shard evicts LRU within itself).
func TestShardedCacheBounds(t *testing.T) {
	s := openSession(t, reachSrc, Options{CacheSize: 8})
	s.cache = newShardedCache(8, 4, s.evictions)
	for i := 0; i < 12; i++ {
		if err := s.Inject(0, link(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		answers(t, s, fmt.Sprintf("reach(s%d, X)", i))
	}
	if n := s.cacheLen(); n > 8 {
		t.Errorf("sharded cache holds %d entries, capacity 8", n)
	}
	// Entries that survived still serve hits.
	before := s.Snapshot().Get("serve.cache.hits")
	answers(t, s, "reach(s11, X)") // most recent: must still be cached
	if got := s.Snapshot().Get("serve.cache.hits"); got != before+1 {
		t.Errorf("most-recent entry missed: hits %d -> %d", before, got)
	}
}

// Readers really do share the session: a Query completes while another
// goroutine holds the session's read lock, which the old
// single-mutex design would deadlock on (deterministic, not timing
// dependent: the lock is held for the whole query).
func TestQueriesProceedUnderSharedLock(t *testing.T) {
	s := openSession(t, reachSrc, Options{})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	answers(t, s, "reach(a, X)") // flush + warm the cache
	s.mu.RLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := answers(t, s, "reach(a, X)"); len(got) != 1 {
			t.Errorf("concurrent read = %v", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		s.mu.RUnlock()
		t.Fatal("query blocked behind a concurrent reader: read path is not shared")
	}
	s.mu.RUnlock()
	if peak := s.readerPeak.Load(); peak < 1 {
		t.Errorf("serve.read_concurrency.peak = %d, want >= 1", peak)
	}
}

// Buffered writes survive Close: every acknowledged write is applied
// before the session shuts down.
func TestCloseFlushesBufferedWrites(t *testing.T) {
	s := openSession(t, reachSrc, Options{BatchSize: 1024, BatchDelay: -1})
	if err := s.Inject(0, link("a", "b")); err != nil {
		t.Fatal(err)
	}
	if s.Lag() != 1 {
		t.Fatalf("precondition: write should be buffered, lag=%d", s.Lag())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Lag() != 0 {
		t.Errorf("lag after Close = %d, want 0 (batch applied)", s.Lag())
	}
	// The cluster itself saw the write.
	if got := s.c.Results("reach/2"); len(got) != 1 {
		t.Errorf("cluster reach/2 = %v, want the flushed fact derived", got)
	}
}
