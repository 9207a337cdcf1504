package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	snlog "repro"
	"repro/internal/datalog/ast"
	"repro/internal/serve"
)

const (
	// churnWindow is W: the sliding chain holds W links; write k
	// inserts link(s[W+k], s[W+k+1]) and deletes link(s[k], s[k+1]),
	// so the database size stays flat.
	churnWindow = 8
	// churnRate is the offered write rate in writes per second, about
	// half the highest rate a 2-core machine sustains without a
	// growing backlog (README.md).
	churnRate = 100
	// readsPerWrite bounded-stale reads of the hot goal follow each
	// write on the schedule.
	readsPerWrite = 4
	// staleLag is the staleness bound of the reads, in writes.
	staleLag = 64
	// visibleWait bounds how long a phase waits for its last writes to
	// reach the subscriber.
	visibleWait = 3 * time.Second
	// maxReplayBatches bounds the flush-stage replay.
	maxReplayBatches = 200
)

// churnEnv is serve-churn: connection A runs the open-loop schedule of
// writes and stale reads, connection B holds a reach/2 subscription
// whose deltas a consumer goroutine replays.
type churnEnv struct {
	*serveEnv
	static []ast.Term // the read goal's chain, never written
	slide  []ast.Term // grows by one vertex per write
	nodes  []int      // source node of link(slide[i], slide[i+1])
	next   int        // index of the next write
	read   goal       // the hot read goal
	rng    *rand.Rand

	sub      *serve.ClientSub
	subDone  chan struct{}
	mu       sync.Mutex
	due      map[int]time.Time // write index -> due time, until visible
	visible  []time.Duration   // due -> first delta, per write
	replayed map[string]bool   // the subscriber's view of reach/2
	received int64             // deltas received

	written []int // write indices of the traced phase, for replay
}

// churnFacts is the initial database: the static read chain plus the
// first W links of the sliding chain.
func churnFacts(cfg config) []placed {
	facts, _, _, _ := churnStart(cfg.seed)
	return facts
}

func churnStart(seed int64) (facts []placed, static, slide []ast.Term, nodes []int) {
	rng := rand.New(rand.NewSource(seed))
	static = chain("h", chainLinks)
	for i := 0; i+1 < len(static); i++ {
		facts = append(facts, placed{rng.Intn(serveGrid * serveGrid), link(static[i], static[i+1])})
	}
	slide = chain("s", churnWindow)
	for i := 0; i+1 < len(slide); i++ {
		n := rng.Intn(serveGrid * serveGrid)
		nodes = append(nodes, n)
		facts = append(facts, placed{n, link(slide[i], slide[i+1])})
	}
	return facts, static, slide, nodes
}

// reachSet is the closed-form reach/2 of a chain, as tuple texts.
func reachSet(vs []ast.Term, into map[string]bool) {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			into[reach(vs[i], vs[j]).String()] = true
		}
	}
}

func setupChurn(cfg config) (env, error) {
	facts, static, slide, nodes := churnStart(cfg.seed)
	se, err := openServe(cfg, facts)
	if err != nil {
		return nil, err
	}
	e := &churnEnv{
		serveEnv: se,
		static:   static,
		slide:    slide,
		nodes:    nodes,
		rng:      rand.New(rand.NewSource(cfg.seed + 3)),
		due:      make(map[int]time.Time),
		replayed: make(map[string]bool),
		subDone:  make(chan struct{}),
	}
	gs := chainGoals(static)
	e.read = gs[0] // reach(h0, X)
	e.goals = gs
	if err := e.warm(gs); err != nil {
		e.close()
		return nil, err
	}
	// The subscription baseline is the state at subscribe time; the
	// consumer starts from its closed form.
	reachSet(static, e.replayed)
	reachSet(slide, e.replayed)
	// The local buffer only has to absorb scheduling hiccups of the
	// consumer goroutine, which never blocks; server-side drops are
	// counted by the session.
	if e.sub, err = e.clients[1].Subscribe(context.Background(), "reach/2", 4096); err != nil {
		e.close()
		return nil, err
	}
	go e.consume()
	return e, nil
}

func (e *churnEnv) close() {
	e.serveEnv.close() // closes the subscription stream
	if e.sub != nil {
		<-e.subDone
	}
}

// consume replays subscriber deltas and stamps write visibility: write
// k is visible when the insert of reach(s[W+k], s[W+k+1]) arrives.
func (e *churnEnv) consume() {
	defer close(e.subDone)
	for ev := range e.sub.C() {
		now := time.Now()
		e.mu.Lock()
		e.received++
		if ev.Insert {
			e.replayed[ev.Tuple] = true
			if k, ok := writeOf(ev.Tuple); ok {
				if due, pending := e.due[k]; pending {
					e.visible = append(e.visible, now.Sub(due))
					delete(e.due, k)
				}
			}
		} else {
			delete(e.replayed, ev.Tuple)
		}
		e.mu.Unlock()
	}
}

// writeOf maps reach(s[a], s[a+1]) with a >= W to write a-W.
func writeOf(tuple string) (int, bool) {
	x, y, ok := parseReach(tuple)
	if !ok || !strings.HasPrefix(x, "s") || !strings.HasPrefix(y, "s") {
		return 0, false
	}
	a, err1 := strconv.Atoi(x[1:])
	b, err2 := strconv.Atoi(y[1:])
	if err1 != nil || err2 != nil || b != a+1 || a < churnWindow {
		return 0, false
	}
	return a - churnWindow, true
}

// measure runs the open loop for d: one write then readsPerWrite reads,
// repeating at churnRate writes per second. Every operation is timed
// from when it was due, so a stall also delays what follows it.
func (e *churnEnv) measure(d time.Duration, tr *tracer) (*sample, error) {
	ctx := context.Background()
	a := e.clients[0]
	before := e.sess.Snapshot()
	e.mu.Lock()
	received0, visible0 := e.received, len(e.visible)
	e.mu.Unlock()
	e.written = e.written[:0]

	var t tally
	var late, reads []time.Duration
	writes := 0
	interval := time.Second / time.Duration(churnRate*(1+readsPerWrite))
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, time.Since(due))
		tid := tr.newID()
		if i%(1+readsPerWrite) == 0 {
			writes++
			t.attempted++
			if err := e.write(ctx, a, due, tr, tid); err != nil {
				t.fail("%v", err)
			}
			continue
		}
		t.attempted++
		t0 := time.Now()
		got, _, err := a.QueryStale(ctx, e.read.text, staleLag)
		tr.record(span{Trace: tid, Name: "client.query_stale"}, t0, time.Since(t0))
		switch {
		case err != nil:
			t.fail("stale read %s: %v", e.read.text, err)
		case !checkAnswer(&e.read, got):
			t.wrong("stale read %s: got %v, want %v", e.read.text, got, e.read.want)
		default:
			reads = append(reads, time.Since(due))
		}
	}
	elapsed := time.Since(start)
	if _, err := a.Sync(ctx); err != nil {
		return nil, err
	}

	// Wait for the subscriber: every write visible, and the replayed
	// view equal to the closed form up to the deltas the server
	// dropped.
	truth := make(map[string]bool)
	reachSet(e.static, truth)
	reachSet(e.slide[e.next:], truth)
	var off, drops int64
	var stuck []int
	for waitEnd := time.Now().Add(visibleWait); ; time.Sleep(time.Millisecond) {
		drops = e.sess.Snapshot().Get("serve.subs.dropped")
		e.mu.Lock()
		off = int64(symDiff(e.replayed, truth))
		stuck = stuck[:0]
		for k := range e.due {
			stuck = append(stuck, k)
		}
		e.mu.Unlock()
		if (len(stuck) == 0 && off <= drops) || time.Now().After(waitEnd) {
			break
		}
	}
	after := e.sess.Snapshot()
	e.mu.Lock()
	for _, k := range stuck {
		delete(e.due, k) // never visible: counted below, not waited for again
	}
	s := &sample{ops: int64(len(e.visible) - visible0), elapsed: elapsed}
	s.lat = append(s.lat, e.visible[visible0:]...)
	received := e.received - received0
	e.mu.Unlock()

	dropped := after.Get("serve.subs.dropped") - before.Get("serve.subs.dropped")
	t.attempted += received + dropped
	t.failed += dropped + int64(len(stuck))
	if off > drops {
		t.wrong("subscriber replay differs from reach/2 in %d tuples, %d deltas dropped", off, drops)
	}
	s.tally = t

	s.layers = e.counterLayers(before, after, s)
	flushes := float64(after.Get("serve.batch.flushes") - before.Get("serve.batch.flushes"))
	s.layers["batch.mean_size"] = ratio(float64(after.Get("serve.batch.writes")-before.Get("serve.batch.writes")), flushes)
	s.layers["batch.flushes_per_s"] = flushes / elapsed.Seconds()
	s.layers["subs.deltas_per_write"] = ratio(float64(received+dropped), float64(writes))
	s.layers["subs.dropped"] = float64(dropped)
	s.layers["loadgen.late_p99_ms"] = millis(quantile(late, 0.99))
	s.layers["loadgen.read_p50_us"] = micros(quantile(reads, 0.5))
	s.layers["loadgen.read_p99_us"] = micros(quantile(reads, 0.99))
	return s, nil
}

// write sends write k over connection A: insert the next link of the
// sliding chain, delete the one W writes older at its source node.
func (e *churnEnv) write(ctx context.Context, a *serve.Client, due time.Time, tr *tracer, tid int64) error {
	k := e.next
	e.next++
	from, to := e.slide[len(e.slide)-1], sym("s%d", len(e.slide))
	e.slide = append(e.slide, to)
	node := e.rng.Intn(serveGrid * serveGrid)
	e.nodes = append(e.nodes, node)
	e.written = append(e.written, k)
	ins := link(from, to)
	del := link(e.slide[k], e.slide[k+1])
	e.mu.Lock()
	e.due[k] = due
	e.mu.Unlock()
	var err error
	tr.time(tid, 0, "client.inject", func() { err = a.Inject(ctx, node, ins.String()) })
	if err != nil {
		return fmt.Errorf("write %d insert: %w", k, err)
	}
	tr.time(tid, 0, "client.delete_at", func() { err = a.DeleteAt(ctx, 0, e.nodes[k], del.String()) })
	if err != nil {
		return fmt.Errorf("write %d delete: %w", k, err)
	}
	delete(e.live, del.Key())
	e.live[ins.Key()] = placed{node, ins}
	return nil
}

// symDiff counts the tuples in exactly one of a and b.
func symDiff(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if !b[k] {
			n++
		}
	}
	for k := range b {
		if !a[k] {
			n++
		}
	}
	return n
}

// replay adds the flush-stage numbers to the serving-layer replays:
// the traced phase's write stream, cut into batches of its observed
// mean batch size, is replayed twice — on a bare snlog.Cluster with
// each flush stage timed (validate, apply, Run, Results plus diff),
// and through Session.Sync on a second in-process session.
func (e *churnEnv) replay(tr *tracer, traced *sample, m map[string]float64) (tally, error) {
	t, err := e.serveEnv.replay(tr, traced, m)
	if err != nil || len(e.written) == 0 {
		return t, err
	}
	// Writes are two operations each, and batch.mean_size counts
	// operations.
	per := int(traced.layers["batch.mean_size"]/2 + 0.5)
	if per < 1 {
		per = 1
	}
	var batches [][]int
	for i := 0; i < len(e.written) && len(batches) < maxReplayBatches; i += per {
		batches = append(batches, e.written[i:min(i+per, len(e.written))])
	}
	first := e.written[0]
	var initial []placed
	for i := 0; i+1 < len(e.static); i++ {
		initial = append(initial, placed{0, link(e.static[i], e.static[i+1])})
	}
	for i := first; i < first+churnWindow; i++ {
		initial = append(initial, placed{e.nodes[i], link(e.slide[i], e.slide[i+1])})
	}

	bt, err := e.replayStages(tr, initial, batches)
	if err != nil {
		return t, err
	}
	t.add(bt)
	if err := e.replaySync(tr, initial, batches); err != nil {
		return t, err
	}
	for _, name := range []string{"validate", "apply", "run", "fanout"} {
		m["flush."+name+"_us"] = tr.quantileUs("flush."+name, 0.5)
	}
	m["flush.sync_p50_us"] = tr.quantileUs("flush.sync", 0.5)
	m["flush.sync_p99_us"] = tr.quantileUs("flush.sync", 0.99)
	return t, nil
}

// batchOps are the operations of write k.
func (e *churnEnv) batchOps(k int) (ins, del placed) {
	return placed{e.nodes[churnWindow+k], link(e.slide[churnWindow+k], e.slide[churnWindow+k+1])},
		placed{e.nodes[k], link(e.slide[k], e.slide[k+1])}
}

// replayStages times the flush stages on a bare cluster and checks its
// final reach/2 against the closed form.
func (e *churnEnv) replayStages(tr *tracer, initial []placed, batches [][]int) (tally, error) {
	var t tally
	c, err := snlog.Deploy(snlog.Grid(serveGrid), reachSrc, snlog.WithSeed(deploySeed))
	if err != nil {
		return t, err
	}
	for _, f := range initial {
		if err := c.Inject(f.node, f.t); err != nil {
			return t, err
		}
	}
	c.Run()
	prev := make(map[string]bool)
	for _, x := range c.Results("reach/2") {
		prev[x.Key()] = true
	}
	for _, b := range batches {
		tid := tr.newID()
		tr.time(tid, 0, "flush.validate", func() {
			for _, k := range b {
				ins, del := e.batchOps(k)
				if err == nil {
					err = c.Validate(ins.node, ins.t)
				}
				if err == nil {
					err = c.Validate(del.node, del.t)
				}
			}
		})
		tr.time(tid, 0, "flush.apply", func() {
			for _, k := range b {
				ins, del := e.batchOps(k)
				if err == nil {
					err = c.Inject(ins.node, ins.t)
				}
				if err == nil {
					err = c.DeleteAt(0, del.node, del.t)
				}
			}
		})
		if err != nil {
			return t, err
		}
		tr.time(tid, 0, "flush.run", func() { c.Run() })
		tr.time(tid, 0, "flush.fanout", func() {
			cur := make(map[string]bool, len(prev))
			for _, x := range c.Results("reach/2") {
				cur[x.Key()] = true
			}
			symDiff(prev, cur)
			prev = cur
		})
	}
	last := batches[len(batches)-1]
	end := last[len(last)-1] + 1
	want := make(map[string]bool)
	reachSet(e.static, want)
	reachSet(e.slide[end:end+churnWindow+1], want)
	got := make(map[string]bool)
	for _, x := range c.Results("reach/2") {
		got[x.String()] = true
	}
	t.attempted++
	if n := symDiff(got, want); n != 0 {
		t.wrong("bare-cluster replay: reach/2 differs from the closed form in %d tuples", n)
	}
	return t, nil
}

// replaySync times Session.Sync per batch on a second session whose
// only flushes are the explicit ones, with a subscriber attached so
// the fan-out runs.
func (e *churnEnv) replaySync(tr *tracer, initial []placed, batches [][]int) error {
	ctx := context.Background()
	s, err := serve.Open(ctx, reachSrc, snlog.Grid(serveGrid), serve.Options{
		Deploy:     []snlog.Option{snlog.WithSeed(deploySeed)},
		BatchDelay: -1,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	for _, f := range initial {
		if err := s.Inject(f.node, f.t); err != nil {
			return err
		}
	}
	sub, err := s.Subscribe("reach/2")
	if err != nil {
		return err
	}
	defer sub.Close()
	for _, b := range batches {
		for _, k := range b {
			ins, del := e.batchOps(k)
			if err := s.Inject(ins.node, ins.t); err != nil {
				return err
			}
			if err := s.DeleteAt(0, del.node, del.t); err != nil {
				return err
			}
		}
		tr.time(tr.newID(), 0, "flush.sync", func() { _, err = s.Sync(ctx) })
		if err != nil {
			return err
		}
		drain(sub.C())
	}
	return nil
}

// drain empties a subscription channel without blocking.
func drain(ch <-chan serve.Update) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
