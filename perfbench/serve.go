package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	snlog "repro"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/serve"
)

// reachSrc is the served program: reachability over link facts, the
// recursive workload class of distributed graph-query evaluation.
const reachSrc = `
.base link/2.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
.query reach/2.
`

const (
	serveGrid    = 6   // the deployment is Grid(6): 36 nodes
	deploySeed   = 1   // snlogd's default -seed
	forestChains = 96  // cold/hot database: 96 chains ...
	chainLinks   = 4   // ... of 4 links each: 768 goals, 3x the result cache
	hotChains    = 3   // serve-hot draws from 3 chains: 24 goals
	coldWarmup   = 256 // draws that fill most of the cache before timing
	replayGoals  = 100 // goals per traced-run layer replay
	pings        = 200
)

// placed is a base fact and the node it is injected at.
type placed struct {
	node int
	t    eval.Tuple
}

func sym(format string, args ...any) ast.Term { return ast.Symbol(fmt.Sprintf(format, args...)) }

func link(a, b ast.Term) eval.Tuple  { return eval.NewTuple("link", a, b) }
func reach(a, b ast.Term) eval.Tuple { return eval.NewTuple("reach", a, b) }

// goal is a point query and its expected answer, computed in closed
// form: on a chain v0 -> ... -> vL, reach(vj, X) answers every vk with
// k > j and reach(X, vk) every vj with j < k.
type goal struct {
	text string
	want []string // sorted tuple texts
}

// chain names the vertices prefix0 .. prefixL.
func chain(prefix string, l int) []ast.Term {
	vs := make([]ast.Term, l+1)
	for i := range vs {
		vs[i] = sym("%s%d", prefix, i)
	}
	return vs
}

// chainGoals returns the 2L point goals of one chain.
func chainGoals(vs []ast.Term) []goal {
	var gs []goal
	for j := 0; j+1 < len(vs); j++ {
		g := goal{text: fmt.Sprintf("reach(%s, X)", vs[j])}
		for k := j + 1; k < len(vs); k++ {
			g.want = append(g.want, reach(vs[j], vs[k]).String())
		}
		sort.Strings(g.want)
		gs = append(gs, g)
	}
	for k := 1; k < len(vs); k++ {
		g := goal{text: fmt.Sprintf("reach(X, %s)", vs[k])}
		for j := 0; j < k; j++ {
			g.want = append(g.want, reach(vs[j], vs[k]).String())
		}
		sort.Strings(g.want)
		gs = append(gs, g)
	}
	return gs
}

// forest is the cold/hot database: forestChains chains of chainLinks
// links, each link injected at a seeded random node.
func forest(seed int64) (facts []placed, chains [][]ast.Term) {
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < forestChains; c++ {
		vs := chain(fmt.Sprintf("c%d_", c), chainLinks)
		chains = append(chains, vs)
		for i := 0; i+1 < len(vs); i++ {
			facts = append(facts, placed{rng.Intn(serveGrid * serveGrid), link(vs[i], vs[i+1])})
		}
	}
	return facts, chains
}

// checkAnswer compares a served answer with the expected one.
func checkAnswer(g *goal, got []string) bool {
	if len(got) != len(g.want) {
		return false
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != g.want[i] {
			return false
		}
	}
	return true
}

// countingConn counts the bytes and write calls of a client
// connection, for wire.bytes_per_op and wire.writes_per_op.
type countingConn struct {
	net.Conn
	bytes  atomic.Int64
	writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

// serveEnv is a served session on a loopback listener with two client
// connections: the daemon's code path, in process.
type serveEnv struct {
	cfg     config
	sess    *serve.Session
	srv     *serve.Server
	clients [2]*serve.Client
	live    map[string]placed // base facts the session holds, by key
	goals   []goal            // the goal universe queries draw from
	phase   int64             // measure calls so far, to vary the draws
}

// openServe opens a session with snlogd's defaults (cache 256 in 8
// shards, batch size 64, batch deadline 2ms), serves it on a loopback
// port, dials two clients and loads facts over the wire.
func openServe(cfg config, facts []placed) (*serveEnv, error) {
	ctx := context.Background()
	sess, err := serve.Open(ctx, reachSrc, snlog.Grid(serveGrid), serve.Options{
		Deploy: []snlog.Option{snlog.WithSeed(deploySeed)},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sess.Close()
		return nil, err
	}
	e := &serveEnv{cfg: cfg, sess: sess, srv: serve.NewServer(sess, ln), live: make(map[string]placed)}
	for i := range e.clients {
		if e.clients[i], err = serve.Dial(ln.Addr().String()); err != nil {
			e.close()
			return nil, err
		}
	}
	for _, f := range facts {
		if err := e.clients[0].Inject(ctx, f.node, f.t.String()); err != nil {
			e.close()
			return nil, fmt.Errorf("load %s: %w", f.t, err)
		}
		e.live[f.t.Key()] = f
	}
	if _, err := e.clients[0].Sync(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		if c != nil {
			c.Close()
		}
	}
	e.srv.Close()
	e.sess.Close()
}

// warm queries goals once each, split over the two connections, and
// checks the answers.
func (e *serveEnv) warm(gs []goal) error {
	ctx := context.Background()
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(gs) && errs[c] == nil; i += len(e.clients) {
				got, err := e.clients[c].Query(ctx, gs[i].text)
				switch {
				case err != nil:
					errs[c] = fmt.Errorf("warm-up %s: %w", gs[i].text, err)
				case !checkAnswer(&gs[i], got):
					errs[c] = fmt.Errorf("warm-up %s: got %v, want %v", gs[i].text, got, gs[i].want)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func setupCold(cfg config) (env, error) {
	facts, chains := forest(cfg.seed)
	e, err := openServe(cfg, facts)
	if err != nil {
		return nil, err
	}
	for _, vs := range chains {
		e.goals = append(e.goals, chainGoals(vs)...)
	}
	// Fill part of the cache so the measured phase starts near its
	// steady hit ratio.
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	n := coldWarmup
	if cfg.smoke {
		n = 16
	}
	warm := make([]goal, n)
	for i := range warm {
		warm[i] = e.goals[rng.Intn(len(e.goals))]
	}
	if err := e.warm(warm); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func setupHot(cfg config) (env, error) {
	facts, chains := forest(cfg.seed)
	e, err := openServe(cfg, facts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	for _, c := range rng.Perm(len(chains))[:hotChains] {
		e.goals = append(e.goals, chainGoals(chains[c])...)
	}
	if err := e.warm(e.goals); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// measure runs the closed loop: two connections, each sending its next
// goal as soon as the previous answer arrives. The traced phase dials
// its own two connections through countingConn.
func (e *serveEnv) measure(d time.Duration, tr *tracer) (*sample, error) {
	e.phase++
	clients := e.clients[:]
	var counted []*countingConn
	if tr != nil {
		clients = nil
		for range e.clients {
			raw, err := net.Dial("tcp", e.srv.Addr().String())
			if err != nil {
				return nil, err
			}
			cc := &countingConn{Conn: raw}
			counted = append(counted, cc)
			c := serve.NewClient(cc)
			defer c.Close()
			clients = append(clients, c)
		}
	}
	before := e.sess.Snapshot()
	ctx := context.Background()
	parts := make([]sample, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			p := &parts[i]
			rng := rand.New(rand.NewSource(e.cfg.seed*1_000_003 + e.phase*31 + int64(i)))
			for time.Now().Before(deadline) {
				g := &e.goals[rng.Intn(len(e.goals))]
				t0 := time.Now()
				got, err := c.Query(ctx, g.text)
				dt := time.Since(t0)
				tr.record(span{Trace: tr.newID(), Name: "client.query"}, t0, dt)
				p.attempted++
				switch {
				case err != nil:
					p.fail("query %s: %v", g.text, err)
				case !checkAnswer(g, got):
					p.wrong("query %s: got %v, want %v", g.text, got, g.want)
				default:
					p.ops++
					p.lat = append(p.lat, dt)
				}
			}
		}(i, c)
	}
	wg.Wait()
	s := &sample{elapsed: time.Since(start)}
	for i := range parts {
		s.tally.add(parts[i].tally)
		s.ops += parts[i].ops
		s.lat = append(s.lat, parts[i].lat...)
	}
	s.layers = e.counterLayers(before, e.sess.Snapshot(), s)
	var bytes, writes int64
	for _, cc := range counted {
		bytes += cc.bytes.Load()
		writes += cc.writes.Load()
	}
	s.layers["wire.bytes_per_op"] = ratio(float64(bytes), float64(s.attempted))
	s.layers["wire.writes_per_op"] = ratio(float64(writes), float64(s.attempted))
	return s, nil
}

// counterLayers derives the session-counter layer metrics of a phase.
func (e *serveEnv) counterLayers(before, after snlog.Snapshot, s *sample) map[string]float64 {
	diff := func(name string) float64 { return float64(after.Get(name) - before.Get(name)) }
	hits, misses := diff("serve.cache.hits"), diff("serve.cache.misses")
	return map[string]float64{
		"cache.hit_ratio":               ratio(hits, hits+misses),
		"cache.evictions_per_query":     ratio(diff("serve.cache.evictions"), hits+misses),
		"eval.inserts_per_miss":         ratio(diff("serve.eval.inserts"), misses),
		"eval.join_ops_per_miss":        ratio(diff("serve.eval.join_ops"), misses),
		"session.read_concurrency_peak": float64(after.Get("serve.read_concurrency.peak")),
	}
}

// replay times the serving layers one call at a time, with no other
// load: the wire round trip, a cache hit in process and over the wire,
// and the stages of a miss replayed from the benchmark's own code.
func (e *serveEnv) replay(tr *tracer, _ *sample, m map[string]float64) (tally, error) {
	var t tally
	ctx := context.Background()
	c := e.clients[0]
	for i := 0; i < pings; i++ {
		var err error
		tr.time(tr.newID(), 0, "wire.ping", func() { err = c.Ping(ctx) })
		if err != nil {
			return t, err
		}
	}
	rng := rand.New(rand.NewSource(e.cfg.seed + 2))
	prog := e.sess.Cluster().Engine.Analysis().Program
	edb := make([]eval.Tuple, 0, len(e.live))
	for _, f := range e.live {
		edb = append(edb, f.t)
	}
	n := replayGoals
	if e.cfg.smoke {
		n = 10
	}
	sampled := make([]*goal, n)
	for i := range sampled {
		sampled[i] = &e.goals[rng.Intn(len(e.goals))]
		// Make sure the goal is cached: the timed loops below are hits.
		if _, err := e.sess.Query(ctx, sampled[i].text); err != nil {
			return t, err
		}
	}
	// Each stage runs as its own tight loop, as the closed loop runs
	// queries back to back; interleaving them would time goroutine
	// wake-ups instead of the calls.
	answers := make(map[string][][]string, 3)
	for _, g := range sampled {
		var ts []eval.Tuple
		var err error
		tr.time(tr.newID(), 0, "session.query", func() { ts, err = e.sess.Query(ctx, g.text) })
		if err != nil {
			return t, err
		}
		answers["session"] = append(answers["session"], tupleTexts(ts))
	}
	for _, g := range sampled {
		var got []string
		var err error
		tr.time(tr.newID(), 0, "client.query.hit", func() { got, err = c.Query(ctx, g.text) })
		if err != nil {
			return t, err
		}
		answers["wire"] = append(answers["wire"], got)
	}
	for _, g := range sampled {
		got, err := replayEvaluate(tr, tr.newID(), prog, g.text, edb)
		if err != nil {
			return t, err
		}
		answers["replay"] = append(answers["replay"], got)
	}
	for path, got := range answers {
		for i, g := range sampled {
			t.attempted++
			if !checkAnswer(g, got[i]) {
				t.wrong("%s answer to %s: got %v, want %v", path, g.text, got[i], g.want)
			}
		}
	}
	m["wire.rtt_p50_us"] = tr.quantileUs("wire.ping", 0.5)
	m["session.hit_p50_us"] = tr.quantileUs("session.query", 0.5)
	m["wire.overhead_p50_us"] = tr.quantileUs("client.query.hit", 0.5) - m["session.hit_p50_us"]
	m["parse.p50_us"] = tr.quantileUs("parse", 0.5)
	m["magic.rewrite_p50_us"] = tr.quantileUs("magic.rewrite", 0.5)
	m["eval.evaluate_p50_us"] = tr.quantileUs("eval.evaluate", 0.5)
	m["proof.p50_us"] = tr.quantileUs("proof.tree", 0.5)
	m["proof.share_of_miss"] = ratio(float64(tr.sum("proof.tree")), float64(tr.sum("replay.miss")))
	return t, nil
}

// serveBreakdown times the set-up stages on a bare deployment of the
// served program loaded with the given facts.
func serveBreakdown(facts func(cfg config) []placed) func(cfg config, tr *tracer) (map[string]float64, error) {
	return func(cfg config, tr *tracer) (map[string]float64, error) {
		return bareBreakdown(tr, serveGrid, deploySeed, reachSrc, facts(cfg))
	}
}

func forestFacts(cfg config) []placed {
	facts, _ := forest(cfg.seed)
	return facts
}

// tupleTexts renders tuples in source syntax.
func tupleTexts(ts []eval.Tuple) []string {
	out := make([]string, len(ts))
	for i, x := range ts {
		out[i] = x.String()
	}
	return out
}

// parseReach reads the two argument texts of "reach(a, b)".
func parseReach(s string) (string, string, bool) {
	s, ok := strings.CutPrefix(s, "reach(")
	if !ok {
		return "", "", false
	}
	s, ok = strings.CutSuffix(s, ")")
	if !ok {
		return "", "", false
	}
	return strings.Cut(s, ", ")
}
