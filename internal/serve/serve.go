// Package serve is the query-serving subsystem: the long-lived front
// door between a deployed deductive program and its users (Figure 2 of
// the paper routes user queries through a magic-set rewrite so only
// query-relevant facts are derived; the ROADMAP calls this the
// "millions of users" item).
//
// A Session wraps a running cluster behind a concurrent, context-aware
// client API built as a read/write-phase state machine: any number of
// Query/Explain calls proceed concurrently (under a shared read lock)
// against the last quiesced deployment state, while writes (Inject /
// DeleteAt) enqueue into a bounded buffer that is applied and synced
// as ONE coalesced batch — flushed when the buffer fills
// (Options.BatchSize), when the batch deadline expires
// (Options.BatchDelay), or when an incoming query demands freshness.
// Queries are fresh by default; QueryStale opts into answering from
// the last quiesced snapshot with a reported freshness bound instead
// of waiting for the in-flight batch. Repeated queries hit a sharded
// result cache keyed on the canonical goal and guarded by the goal's
// provenance subtree (cache.go documents the per-shard soundness
// argument).
//
// Command snlogd exposes the same operations to many concurrent
// clients over newline-delimited JSON on TCP (server.go); Client is
// the matching Go client (client.go).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	snlog "repro"
	"repro/internal/core"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
	"repro/internal/datalog/magic"
	"repro/internal/obs"
)

// ErrClosed is returned by every operation on a closed session.
var ErrClosed = errors.New("serve: session closed")

// maxSupport bounds the per-entry support set; an answer set whose
// provenance subtree exceeds it degrades to predicate-level
// invalidation (still sound, just coarser).
const maxSupport = 4096

// Defaults for the zero Options value.
const (
	defaultCacheSize  = 256
	defaultBatchSize  = 64
	defaultBatchDelay = 2 * time.Millisecond
	defaultSpanRing   = 4096
)

// The result cache is split into cacheShards independently locked
// shards (canonical-goal hash partitioned), and each subscription
// channel holds subscribeBuffer updates; a full subscriber drops
// updates and counts them under serve.subs.dropped. A write to a
// recursive predicate fans out many updates (about 16 reach/2 deltas
// per write on the serve-churn chain), so 1024 updates — 64 KiB of
// 64-byte Updates per subscription — absorb a flush of some 60 writes
// after a reader stall.
const (
	cacheShards     = 8
	subscribeBuffer = 1024
)

// Options configures a serving session.
type Options struct {
	// Deploy is passed through to snlog.Deploy (scheme, seed, loss, ...).
	Deploy []snlog.Option
	// CacheSize caps the result cache (entries, summed across shards);
	// 0 means the default (256). Negative disables caching.
	CacheSize int
	// BatchSize bounds the write buffer: the BatchSize-th buffered
	// write flushes the batch synchronously. 0 means the default (64);
	// 1 applies every write immediately (no coalescing).
	BatchSize int
	// BatchDelay is the deadline for a non-empty write buffer: a
	// background flusher applies the batch this long after its first
	// write, so writes are never stranded waiting for a query. 0 means
	// the default (2ms); negative disables the deadline (size- and
	// freshness-triggered flushes only — deterministic, used by the
	// benchmarks and property tests).
	BatchDelay time.Duration
	// NoProvenance skips attaching the provenance graph. Explain then
	// returns an error; Query and the cache are unaffected (the cache
	// derives support sets from the evaluator's proof trees, not the
	// engine graph).
	NoProvenance bool
	// Spans caps the per-query span ring (span records, summed over all
	// retained queries); 0 means the default (4096). Negative disables
	// span capture — trace ids are still allocated and echoed over the
	// wire, but /trace/query/<id> has nothing to show.
	Spans int
}

// Freshness reports how fresh a served answer is.
type Freshness struct {
	// Lag is the number of accepted writes not yet reflected in the
	// answer (0 = the answer is the deductive closure of every write
	// acknowledged before the query).
	Lag int64
	// AsOf is the virtual time of the quiesced snapshot that answered.
	AsOf int64
}

// flush reasons, indexed into Session.flushReasons.
const (
	flushSize     = iota // buffer reached BatchSize
	flushDeadline        // BatchDelay expired on a non-empty buffer
	flushFresh           // a query demanded freshness beyond its lag bound
	flushExplicit        // Sync, Subscribe, Replay, Close
	flushReasonCount
)

// Span stages, indexed into Session.spanStage. The names double as
// the obs.Span Stage strings and the "serve.query.spans.<stage>"
// counter suffixes; counters are pre-resolved at Open so the per-span
// cost on the query path is one atomic add, not a map lookup.
const (
	stParse        = iota // goal parse + validation
	stCacheProbe          // sharded result-cache lookup (note: "hit"/"miss")
	stMagicRewrite        // magic-set rewrite of the program for the goal
	stEval                // evaluation (note: "fallback" on the degraded path)
	stExplain             // provenance walk (Explain only)
	stRespond             // post-read bookkeeping until the answer is returned
	stageCount
)

var stageNames = [stageCount]string{
	"parse", "cache_probe", "magic_rewrite", "eval", "explain", "respond",
}

// opKind distinguishes buffered write operations.
type opKind uint8

const (
	opInsert opKind = iota
	opInsertAt
	opDeleteAt
)

// writeOp is one buffered, validated write.
type writeOp struct {
	seq   int64
	kind  opKind
	at    int64
	node  int
	tuple eval.Tuple // Keyed
}

// Session is one served deployment: a cluster, its base-fact ledger,
// the sharded result cache, the write buffer, and the subscriber
// fan-out. All methods are safe for concurrent use by many goroutines
// ("clients").
//
// Concurrency contract (the read/write-phase state machine): mu held
// shared (RLock) is the read phase — the cluster is quiescent and
// edb/cache/derived state are immutable, so any number of
// Query/Explain calls evaluate concurrently. mu held exclusive (Lock)
// is the write phase — the coalesced batch is applied, the cluster
// runs to quiescence, cache entries are invalidated and subscription
// deltas fan out. Writes themselves never take mu exclusively: they
// validate under RLock, append to the buffer under bmu, and return;
// only the flush pays the sync.
type Session struct {
	mu     sync.RWMutex
	c      *snlog.Cluster
	prog   *ast.Program
	opts   Options
	closed bool

	// edb is the session's base-fact ledger: the live extensional
	// database at quiescence, keyed by tuple key. Queries evaluate
	// against it (the reference semantics the differential harness
	// pins: the deductive closure of the surviving base facts).
	// Mutated only while mu is held exclusively.
	edb map[string]eval.Tuple

	cache *shardedCache
	// cones is built once at Open for every derived predicate and
	// read-only afterwards, so concurrent readers need no lock; each
	// cone's facts (its slice of edb) is replaced while mu is held
	// exclusively.
	cones map[string]*cone

	subs     map[int]*Subscription
	nextSub  int
	lastSeen map[string]map[string]eval.Tuple

	// Write buffer. bmu orders enqueues against drains; enqSeq is the
	// last accepted write's sequence number (stored while bmu is
	// held), appliedSeq the last applied-and-synced one (stored while
	// mu is held exclusively). Lag = enqSeq - appliedSeq.
	bmu        sync.Mutex
	pending    []writeOp
	nextSeq    int64 // under bmu
	enqSeq     atomic.Int64
	appliedSeq atomic.Int64
	lastEnd    atomic.Int64 // virtual time of the last quiesce

	kick chan struct{} // wakes the deadline flusher on 0->1 buffer
	done chan struct{} // closed by Close; stops the flusher

	readers    atomic.Int64 // queries/explains currently inside the read phase
	readerPeak atomic.Int64

	// Per-query tracing: every Query/QueryStale/Explain ingress gets a
	// trace id (client-chosen over the wire, or allocated here) and its
	// stages append spans to a shared fixed-capacity ring.
	nextTrace atomic.Int64
	spans     *obs.SpanRing
	spanStage [stageCount]*obs.Counter

	// counters (registered on the cluster's registry, so they appear
	// in Snapshot next to nsim.*/core.*).
	queries      *obs.Counter
	hits         *obs.Counter
	misses       *obs.Counter
	evictions    *obs.Counter
	fallbacks    *obs.Counter
	subDrops     *obs.Counter
	evalIns      *obs.Counter
	evalJoins    *obs.Counter
	evalSteps    *obs.Counter
	batchWrites  *obs.Counter
	batchFlushes *obs.Counter
	batchElided  *obs.Counter
	applyErrors  *obs.Counter
	staleServed  *obs.Counter
	flushReasons [flushReasonCount]*obs.Counter
	batchSizes   *obs.Histogram
	latency      *obs.Histogram
}

// Open compiles src onto the topology and wraps the deployment in a
// serving session. The context bounds Open itself (deployment is
// synchronous and fast; ctx is checked before and after). Provenance
// is attached by default so Explain works; see Options.NoProvenance.
func Open(ctx context.Context, src string, t snlog.Topology, opts Options) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deployOpts := opts.Deploy
	if !opts.NoProvenance {
		deployOpts = append(append([]snlog.Option(nil), deployOpts...), snlog.WithProvenance())
	}
	c, err := snlog.Deploy(t, src, deployOpts...)
	if err != nil {
		return nil, err
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = defaultCacheSize
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = defaultBatchSize
	}
	if opts.BatchSize < 1 {
		opts.BatchSize = 1
	}
	if opts.BatchDelay == 0 {
		opts.BatchDelay = defaultBatchDelay
	}
	reg := c.Registry()
	prog := c.Engine.Analysis().Program
	s := &Session{
		c:        c,
		prog:     prog,
		opts:     opts,
		edb:      make(map[string]eval.Tuple),
		cones:    make(map[string]*cone),
		subs:     make(map[int]*Subscription),
		lastSeen: make(map[string]map[string]eval.Tuple),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),

		queries:      reg.Counter("serve.queries"),
		hits:         reg.Counter("serve.cache.hits"),
		misses:       reg.Counter("serve.cache.misses"),
		evictions:    reg.Counter("serve.cache.evictions"),
		fallbacks:    reg.Counter("serve.fallbacks"),
		subDrops:     reg.Counter("serve.subs.dropped"),
		evalIns:      reg.Counter("serve.eval.inserts"),
		evalJoins:    reg.Counter("serve.eval.join_ops"),
		evalSteps:    reg.Counter("serve.eval.cascade_steps"),
		batchWrites:  reg.Counter("serve.batch.writes"),
		batchFlushes: reg.Counter("serve.batch.flushes"),
		batchElided:  reg.Counter("serve.batch.elided"),
		applyErrors:  reg.Counter("serve.batch.apply_errors"),
		staleServed:  reg.Counter("serve.stale.served"),
		// Batch sizes: 1 .. 2048 exponential ladder.
		batchSizes: reg.Histogram("serve.batch.size", obs.ExpBuckets(1, 2, 12)),
		// Query latency in microseconds: 1µs .. ~4s exponential ladder.
		latency: reg.Histogram("serve.query_latency", obs.ExpBuckets(1, 2, 22)),
	}
	s.flushReasons[flushSize] = reg.Counter("serve.batch.flush.size")
	s.flushReasons[flushDeadline] = reg.Counter("serve.batch.flush.deadline")
	s.flushReasons[flushFresh] = reg.Counter("serve.batch.flush.fresh")
	s.flushReasons[flushExplicit] = reg.Counter("serve.batch.flush.explicit")
	for i, name := range stageNames {
		s.spanStage[i] = reg.Counter("serve.query.spans." + name)
	}
	spanCap := opts.Spans
	if spanCap == 0 {
		spanCap = defaultSpanRing
	}
	if spanCap > 0 {
		s.spans = obs.NewSpanRing(spanCap)
	}
	reg.Gauge("serve.read_concurrency", func() int64 { return s.readers.Load() })
	reg.Gauge("serve.read_concurrency.peak", func() int64 { return s.readerPeak.Load() })
	if opts.CacheSize > 0 {
		s.cache = newShardedCache(opts.CacheSize, cacheShards, s.evictions)
	}
	// Precompute the dependency cone of every derived predicate: goals
	// are validated to be derived, so concurrent readers only ever
	// look cones up, never build them.
	for _, pred := range prog.DerivedPredicates() {
		s.cones[pred] = buildCone(prog, pred)
	}
	// Establish the initial quiescent snapshot (program-declared facts
	// settle here) so reads never need to run the cluster.
	s.lastEnd.Store(c.Run())
	go s.flusher()
	if err := ctx.Err(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Cluster exposes the wrapped deployment (read-mostly: drive mutations
// through the session so the cache and ledger stay lock-stepped).
func (s *Session) Cluster() *snlog.Cluster { return s.c }

// Snapshot samples every metric of the deployment plus the serving
// counters (serve.queries, serve.cache.*, serve.batch.*,
// serve.query_latency.*).
func (s *Session) Snapshot() snlog.Snapshot { return s.c.Snapshot() }

// Lag reports the current freshness gap: accepted writes not yet
// applied and synced.
func (s *Session) Lag() int64 { return s.enqSeq.Load() - s.appliedSeq.Load() }

// Close shuts the session: the remaining write batch is applied (every
// acknowledged write reaches the deployment), subscriptions are
// closed, and every later operation returns ErrClosed. Idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.flushLocked(flushExplicit)
	s.closed = true
	for id, sub := range s.subs {
		close(sub.ch)
		delete(s.subs, id)
	}
	s.mu.Unlock()
	close(s.done)
	return nil
}

// Inject generates a base fact at a node, now. Validation failures
// return the typed sentinels (snlog.ErrUnknownPredicate, ...)
// immediately and buffer nothing; an accepted write is buffered and
// applied with the next coalesced batch.
func (s *Session) Inject(node int, t eval.Tuple) error {
	_, err := s.enqueue(opInsert, 0, node, t)
	return err
}

// InjectAt generates a base fact at a node at an absolute virtual
// time.
func (s *Session) InjectAt(at int64, node int, t eval.Tuple) error {
	_, err := s.enqueue(opInsertAt, at, node, t)
	return err
}

// DeleteAt deletes a previously injected base fact at its source node
// at an absolute virtual time. The ledger and cache update when the
// batch holding the deletion is applied (the session's view is the
// state at quiescence, after the deletion has fired).
func (s *Session) DeleteAt(at int64, node int, t eval.Tuple) error {
	_, err := s.enqueue(opDeleteAt, at, node, t)
	return err
}

// enqueue validates a write, appends it to the batch buffer and
// returns its sequence number (the wire's batch ack). The write is
// applied by the next flush: when this write fills the buffer the
// caller flushes synchronously, otherwise the first write of a batch
// arms the deadline flusher.
func (s *Session) enqueue(kind opKind, at int64, node int, t eval.Tuple) (int64, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, ErrClosed
	}
	if err := s.c.Validate(node, t); err != nil {
		s.mu.RUnlock()
		return 0, err
	}
	t = t.Keyed()
	s.bmu.Lock()
	s.nextSeq++
	seq := s.nextSeq
	s.pending = append(s.pending, writeOp{seq: seq, kind: kind, at: at, node: node, tuple: t})
	n := len(s.pending)
	s.enqSeq.Store(seq)
	s.bmu.Unlock()
	s.mu.RUnlock()
	s.batchWrites.Inc()
	if n >= s.opts.BatchSize {
		// This writer pays the coalesced apply+sync for the whole
		// batch. A concurrent Close may have drained the buffer first;
		// the write was applied there, so ErrClosed is not a failure.
		if _, err := s.flush(flushSize); err != nil && !errors.Is(err, ErrClosed) {
			return seq, err
		}
	} else if n == 1 && s.opts.BatchDelay > 0 {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// flusher is the deadline arm of the batch state machine: BatchDelay
// after a batch's first write it applies whatever has accumulated, so
// a write never waits indefinitely for a query to force freshness.
func (s *Session) flusher() {
	if s.opts.BatchDelay <= 0 {
		return
	}
	for {
		select {
		case <-s.done:
			return
		case <-s.kick:
			t := time.NewTimer(s.opts.BatchDelay)
			select {
			case <-s.done:
				t.Stop()
				return
			case <-t.C:
				s.flush(flushDeadline) // no-op if a size/fresh flush won the race
			}
		}
	}
}

// flush applies the buffered batch under the exclusive lock.
func (s *Session) flush(reason int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.flushLocked(reason), nil
}

// flushLocked drains the write buffer, applies every operation in
// acceptance order, runs the cluster to quiescence once for the whole
// batch, publishes the new freshness horizon and fans out
// subscription deltas. Caller holds mu exclusively. Outside exclusive
// sections the cluster is always quiescent, so an empty buffer means
// there is nothing to do.
func (s *Session) flushLocked(reason int) int64 {
	s.bmu.Lock()
	ops := s.pending
	s.pending = nil
	s.bmu.Unlock()
	if len(ops) == 0 {
		return s.lastEnd.Load()
	}
	changed := false
	for _, op := range s.elideRedundant(ops) {
		if s.applyLocked(op) {
			changed = true
		}
	}
	if changed {
		s.indexLedger()
	}
	s.batchFlushes.Inc()
	s.flushReasons[reason].Inc()
	s.batchSizes.Observe(int64(len(ops)))
	end := s.runLocked()
	s.appliedSeq.Store(ops[len(ops)-1].seq)
	return end
}

// elideRedundant drops buffered inserts that repeat an earlier insert
// in the same batch exactly (same kind, time, node and tuple key) —
// the sensor-network common case of a node redundantly re-reporting a
// reading it already reported. A repeat insert is not a no-op at the
// engine level: it earns a fresh generation stamp, a full storage and
// join cascade across the deployment, an overwritten base-ledger
// entry and a duplicate result delta, all without changing any query
// answer. Eliding it inside one coalesced batch is therefore
// observation-equivalent — except when the same key is also deleted
// somewhere in the batch, because deletion removes the derivation of
// the latest stamp and collapsing insert;insert;delete to
// insert;delete would change which stamp survives; those keys are
// applied verbatim. The freshness horizon is untouched: elision
// happens after acceptance, so appliedSeq still advances over the
// elided ops.
func (s *Session) elideRedundant(ops []writeOp) []writeOp {
	if len(ops) < 2 {
		return ops
	}
	var deleted map[string]bool
	for _, op := range ops {
		if op.kind == opDeleteAt {
			if deleted == nil {
				deleted = make(map[string]bool)
			}
			deleted[op.tuple.Key()] = true
		}
	}
	type opSig struct {
		kind opKind
		at   int64
		node int
		key  string
	}
	seen := make(map[opSig]bool, len(ops))
	kept := ops[:0]
	for _, op := range ops {
		if op.kind != opDeleteAt {
			sig := opSig{kind: op.kind, at: op.at, node: op.node, key: op.tuple.Key()}
			if seen[sig] && !deleted[op.tuple.Key()] {
				s.batchElided.Inc()
				continue
			}
			seen[sig] = true
		}
		kept = append(kept, op)
	}
	return kept
}

// applyLocked replays one buffered write against the cluster, the
// ledger and the cache, and reports whether the ledger changed. Caller
// holds mu exclusively.
func (s *Session) applyLocked(op writeOp) bool {
	var err error
	switch op.kind {
	case opInsert:
		err = s.c.Inject(op.node, op.tuple)
	case opInsertAt:
		err = s.c.InjectAt(op.at, op.node, op.tuple)
	case opDeleteAt:
		err = s.c.DeleteAt(op.at, op.node, op.tuple)
	}
	if err != nil {
		// Unreachable by construction: enqueue validated against the
		// same immutable program and topology. Count it rather than
		// lose it silently.
		s.applyErrors.Inc()
		return false
	}
	key := op.tuple.Key()
	_, had := s.edb[key]
	if op.kind == opDeleteAt {
		delete(s.edb, key)
		// A deletion can only remove answers in the positive cone —
		// only entries whose provenance subtree contains the tuple are
		// touched — but under negation it can create answers, so
		// negation-tainted cones evict predicate-wide.
		s.cache.baseDeleted(op.tuple.Pred, key)
		return had
	}
	s.edb[key] = op.tuple
	// Lock-step with the store: a new base fact can create answers
	// in its positive cone and destroy them under negation — evict
	// every entry whose cone contains the predicate.
	s.cache.baseInserted(op.tuple.Pred)
	return !had
}

// indexLedger rebuilds every cone's key-ordered slice of edb after a
// batch that changed it, so cache misses never filter or sort. Caller
// holds mu exclusively.
func (s *Session) indexLedger() {
	ledger := make([]eval.Tuple, 0, len(s.edb))
	for _, t := range s.edb {
		ledger = append(ledger, t)
	}
	sort.Slice(ledger, func(i, j int) bool { return ledger[i].Key() < ledger[j].Key() })
	for _, cn := range s.cones {
		cn.facts = cn.filter(ledger)
	}
}

// Replay schedules the Replay-based repair pass (requires
// snlog.WithReplayLog), runs it, and flushes the whole result cache:
// repair rebuilds the set-of-derivations store wholesale, so no cached
// subtree is trustworthy. Buffered writes are applied first so the
// repair sees the full acknowledged timeline.
func (s *Session) Replay() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.flushLocked(flushExplicit)
	if err := s.c.Replay(); err != nil {
		return err
	}
	s.cache.flush()
	s.runLocked()
	return nil
}

// Sync applies the buffered write batch, runs the cluster to
// quiescence, delivers pending subscription updates, and returns the
// virtual end time.
func (s *Session) Sync(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.flush(flushExplicit)
}

// qtrace carries one query's trace through its stages: step appends a
// span covering the time since the previous step and bumps the stage's
// counter. The zero-cost discipline lives in the callee (SpanRing and
// Counter are nil-safe), so the query path is identical whether span
// capture is on or off.
type qtrace struct {
	s     *Session
	id    int64
	start time.Time
	last  time.Time
}

// beginTrace opens a trace. id 0 (a local caller, or a wire request
// without trace_id) allocates the next session-unique id; a nonzero id
// is the client's own correlation key, echoed back verbatim.
func (s *Session) beginTrace(id int64, start time.Time) qtrace {
	if id == 0 {
		id = s.nextTrace.Add(1)
	}
	return qtrace{s: s, id: id, start: start, last: start}
}

func (q *qtrace) step(stage int, note string) {
	now := time.Now()
	q.s.spans.Record(obs.Span{
		Trace:   q.id,
		Stage:   stageNames[stage],
		StartUs: q.last.Sub(q.start).Microseconds(),
		DurUs:   now.Sub(q.last).Microseconds(),
		Note:    note,
	})
	q.s.spanStage[stage].Inc()
	q.last = now
}

// Spans exposes the per-query span ring (nil when Options.Spans is
// negative) — the admin endpoint's /trace/query/<id> source.
func (s *Session) Spans() *obs.SpanRing { return s.spans }

// Query answers a point query: goal is a literal such as
// "path(n0, X)". The goal is validated on the shared core.ParseGoal
// path, any in-flight write batch is applied (Query is fresh — the
// answer reflects every write acknowledged before the call), and the
// answer is served from the sharded result cache when the goal's
// provenance subtree is intact — otherwise the program is magic-set
// rewritten for the goal and evaluated over the live base facts,
// deriving only query-relevant tuples. Answers come back in canonical
// order; the returned slice is the caller's to keep. Concurrent
// queries evaluate in parallel under the shared read lock.
func (s *Session) Query(ctx context.Context, goal string) ([]eval.Tuple, error) {
	answers, _, _, err := s.query(ctx, goal, 0, 0)
	return answers, err
}

// QueryStale answers like Query but tolerates bounded staleness: if
// at most maxLag accepted writes are unapplied it answers from the
// last quiesced snapshot without waiting for the in-flight batch, and
// reports the actual freshness bound. A negative maxLag means
// unbounded. maxLag 0 is Query.
func (s *Session) QueryStale(ctx context.Context, goal string, maxLag int64) ([]eval.Tuple, Freshness, error) {
	answers, fr, _, err := s.query(ctx, goal, staleLag(maxLag), 0)
	return answers, fr, err
}

// QueryTraced is QueryStale plus trace correlation: traceID 0 lets the
// session allocate one, a nonzero id is the caller's correlation key.
// Either way the effective id is returned alongside the answer, and
// the query's stage spans land in Spans() under that id.
func (s *Session) QueryTraced(ctx context.Context, goal string, maxLag, traceID int64) ([]eval.Tuple, Freshness, int64, error) {
	return s.query(ctx, goal, staleLag(maxLag), traceID)
}

func staleLag(maxLag int64) int64 {
	if maxLag < 0 {
		return math.MaxInt64
	}
	return maxLag
}

func (s *Session) query(ctx context.Context, goal string, maxLag, tid int64) ([]eval.Tuple, Freshness, int64, error) {
	start := time.Now()
	qt := s.beginTrace(tid, start)
	if err := ctx.Err(); err != nil {
		return nil, Freshness{}, qt.id, err
	}
	lit, err := core.ParseGoal(s.prog, goal) // prog is immutable: no lock
	if err != nil {
		return nil, Freshness{}, qt.id, err
	}
	qt.step(stParse, "")
	if s.Lag() > maxLag {
		if _, err := s.flush(flushFresh); err != nil {
			return nil, Freshness{}, qt.id, err
		}
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, Freshness{}, qt.id, ErrClosed
	}
	s.enterRead()
	s.queries.Inc()
	key := core.CanonicalGoal(lit)
	var answers []eval.Tuple
	if e := s.cache.get(key); e != nil {
		s.hits.Inc()
		qt.step(stCacheProbe, "hit")
		answers = append([]eval.Tuple(nil), e.answers...)
	} else {
		s.misses.Inc()
		qt.step(stCacheProbe, "miss")
		var support map[string]bool
		answers, support, err = s.evaluate(lit, &qt)
		if err == nil {
			cn := s.coneOf(lit.PredKey())
			s.cache.put(&cacheEntry{
				key:     key,
				answers: answers,
				pos:     cn.pos,
				neg:     cn.neg,
				support: support,
			})
			answers = append([]eval.Tuple(nil), answers...)
		}
	}
	fr := Freshness{Lag: s.Lag(), AsOf: s.lastEnd.Load()}
	s.readers.Add(-1)
	s.mu.RUnlock()
	if err != nil {
		return nil, Freshness{}, qt.id, err
	}
	if fr.Lag > 0 {
		s.staleServed.Inc()
	}
	qt.step(stRespond, "")
	s.latency.Observe(time.Since(start).Microseconds())
	return answers, fr, qt.id, nil
}

// enterRead tracks read-phase concurrency for the
// serve.read_concurrency gauges. Caller holds mu shared and pairs
// this with readers.Add(-1).
func (s *Session) enterRead() {
	cur := s.readers.Add(1)
	for {
		peak := s.readerPeak.Load()
		if cur <= peak || s.readerPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Explain answers "why is this tuple derived": the goal must be
// ground, and the session must have provenance attached (the
// default). Buffered writes are applied first (Explain is fresh);
// the provenance walk itself runs in the concurrent read phase.
func (s *Session) Explain(ctx context.Context, goal string) (*snlog.ExplainTree, error) {
	tree, _, err := s.explain(ctx, goal, 0)
	return tree, err
}

// ExplainTraced is Explain plus trace correlation, mirroring
// QueryTraced: the effective trace id is returned and the walk's spans
// land in Spans() under it.
func (s *Session) ExplainTraced(ctx context.Context, goal string, traceID int64) (*snlog.ExplainTree, int64, error) {
	return s.explain(ctx, goal, traceID)
}

func (s *Session) explain(ctx context.Context, goal string, tid int64) (*snlog.ExplainTree, int64, error) {
	qt := s.beginTrace(tid, time.Now())
	if err := ctx.Err(); err != nil {
		return nil, qt.id, err
	}
	lit, err := core.ParseGoal(s.prog, goal)
	if err != nil {
		return nil, qt.id, err
	}
	for _, a := range lit.Args {
		if !a.Ground() {
			return nil, qt.id, fmt.Errorf("serve: explain %s: goal must be ground: %w", goal, core.ErrNotGround)
		}
	}
	qt.step(stParse, "")
	if s.Lag() > 0 {
		if _, err := s.flush(flushFresh); err != nil {
			return nil, qt.id, err
		}
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, qt.id, ErrClosed
	}
	s.enterRead()
	tree, err := s.c.Explain(lit.Predicate, lit.Args...)
	s.readers.Add(-1)
	s.mu.RUnlock()
	qt.step(stExplain, "")
	qt.step(stRespond, "")
	return tree, qt.id, err
}

// Subscribe watches a derived predicate ("name/arity"): after every
// batch apply (Query-forced, size, deadline or Sync) the
// subscription's channel carries one Update per derived tuple that
// appeared or disappeared since the previous sync. The baseline is
// the state at subscribe time, with any buffered writes applied
// first. A subscriber that falls behind its buffer loses updates
// (counted under serve.subs.dropped); Close the subscription when
// done.
func (s *Session) Subscribe(pred string) (*Subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if !s.prog.IsDerived(pred) {
		if _, ok := knownKey(s.prog, pred); ok {
			return nil, fmt.Errorf("serve: subscribe %s: %w", pred, core.ErrBasePredicate)
		}
		return nil, fmt.Errorf("serve: subscribe %s: %w", pred, core.ErrUnknownPredicate)
	}
	// Baseline at the current quiescent state so the subscriber sees
	// only changes from now on.
	s.flushLocked(flushExplicit)
	if _, ok := s.lastSeen[pred]; !ok {
		s.lastSeen[pred] = tuplesByKey(s.c.Results(pred))
	}
	id := s.nextSub
	s.nextSub++
	sub := &Subscription{
		s:    s,
		id:   id,
		pred: pred,
		ch:   make(chan Update, subscribeBuffer),
	}
	s.subs[id] = sub
	return sub, nil
}

// Update is one derived-predicate change delivered to a subscriber.
type Update struct {
	// Insert is true when the tuple appeared, false when it was
	// deleted.
	Insert bool
	Tuple  eval.Tuple
}

// Subscription is a live watch on one derived predicate.
type Subscription struct {
	s    *Session
	id   int
	pred string
	ch   chan Update
}

// C is the update stream. It is closed when the subscription or the
// session closes.
func (sub *Subscription) C() <-chan Update { return sub.ch }

// Pred returns the watched predicate key.
func (sub *Subscription) Pred() string { return sub.pred }

// Close detaches the subscription and closes its channel. Idempotent.
func (sub *Subscription) Close() {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	if _, live := sub.s.subs[sub.id]; live {
		delete(sub.s.subs, sub.id)
		close(sub.ch)
	}
}

// runLocked runs the simulation to quiescence and fans out
// derived-state diffs to subscribers. Caller holds mu exclusively.
func (s *Session) runLocked() int64 {
	end := s.c.Run()
	s.lastEnd.Store(end)
	if len(s.lastSeen) == 0 {
		return end
	}
	for pred, prev := range s.lastSeen {
		cur := tuplesByKey(s.c.Results(pred))
		if len(prev) == 0 && len(cur) == 0 {
			continue
		}
		var ups []Update
		for k, t := range prev {
			if _, live := cur[k]; !live {
				ups = append(ups, Update{Insert: false, Tuple: t})
			}
		}
		for k, t := range cur {
			if _, had := prev[k]; !had {
				ups = append(ups, Update{Insert: true, Tuple: t})
			}
		}
		if len(ups) == 0 {
			continue
		}
		sort.Slice(ups, func(i, j int) bool {
			if ups[i].Insert != ups[j].Insert {
				return !ups[i].Insert // deletions first
			}
			return ups[i].Tuple.Key() < ups[j].Tuple.Key()
		})
		s.lastSeen[pred] = cur
		for _, sub := range s.subs {
			if sub.pred != pred {
				continue
			}
			for _, u := range ups {
				select {
				case sub.ch <- u:
				default:
					s.subDrops.Inc()
				}
			}
		}
	}
	return end
}

// evaluate answers the goal by magic-set rewriting the program and
// evaluating the rewritten program over the live base facts with the
// set-of-derivations maintainer, so each answer's proof tree yields
// the base-fact support set the cache invalidates on.
//
// The cone's base facts are loaded first, as one batch, and the magic
// seed second. While the facts load, every magic-guarded rule reads an
// empty guard table, so the maintainer skips it without matching
// anything; the seed then derives only the goal's magic cone. The
// result is exact either way round: set-of-derivations maintenance
// under insertions alone ends in the same database and derivation sets
// for any insertion order, so answers and proof trees do not depend on
// the order. Falls back to
// filtering the engine's derived state (predicate-level cache
// precision) when the rewrite or the maintainer cannot handle the
// program — aggregates, derivation cycles. Runs in the read phase:
// everything it touches (prog, cones, edb, the engine's derived sets)
// is immutable while mu is held shared, and the rewrite + maintainer
// are private to this call.
func (s *Session) evaluate(lit ast.Literal, qt *qtrace) (answers []eval.Tuple, support map[string]bool, err error) {
	cn := s.coneOf(lit.PredKey())
	tr, rewriteErr := magic.Rewrite(s.prog, lit)
	if rewriteErr != nil {
		qt.step(stMagicRewrite, "failed")
		return s.fallback(lit, qt)
	}
	qt.step(stMagicRewrite, "")
	// Split fact rules (the magic seed, plus any program facts) out of
	// the rewritten program: NewMaintainer preloads fact rules into the
	// database without cascading them through the rule set, so a seed
	// whose predicate only feeds seed-triggered rules (fully-bound
	// goals) would never propagate. Inserting them as ordinary base
	// tuples makes them cascade like any other fact.
	mprog := ast.NewProgram()
	for k, v := range tr.Program.Base {
		mprog.Base[k] = v
	}
	for k, v := range tr.Program.Windows {
		mprog.Windows[k] = v
	}
	var seeds []eval.Tuple
	for _, r := range tr.Program.Rules {
		if r.IsFact() {
			seeds = append(seeds, eval.Tuple{Pred: r.Head.PredKey(), Args: r.Head.Args}.Keyed())
			continue
		}
		// Left-linear recursion makes the rewrite emit tautologies such
		// as m_p_bf(X) :- m_p_bf(X). They are semantic no-ops but give
		// every magic tuple a self-derivation, which the proof-tree
		// unfolder (first-derivation, no backtracking) reports as a
		// cycle — killing support-set precision. Drop them.
		if isTautology(r) {
			continue
		}
		mprog.AddRule(r)
	}
	m, mErr := eval.NewMaintainer(mprog, eval.SetOfDerivations, eval.Options{})
	if mErr != nil {
		return s.fallback(lit, qt)
	}
	if _, insErr := m.InsertBatch(cn.facts); insErr != nil {
		return s.fallback(lit, qt)
	}
	for _, seed := range seeds {
		if _, insErr := m.Insert(seed); insErr != nil {
			return s.fallback(lit, qt)
		}
	}
	st := m.Stats()
	s.evalIns.Add(int64(len(cn.facts)))
	s.evalJoins.Add(st.JoinOps)
	s.evalSteps.Add(st.CascadeSteps)

	raw := m.DB().Tuples(tr.AnswerPred)
	answers = make([]eval.Tuple, 0, len(raw))
	support = make(map[string]bool)
	for _, a := range raw {
		answers = append(answers, eval.Tuple{Pred: lit.PredKey(), Args: a.Args}.Keyed())
		if support == nil {
			continue
		}
		pt, ptErr := m.ProofTree(a)
		if ptErr != nil {
			support = nil
			continue
		}
		collectBaseSupport(pt, s.prog, support)
		if len(support) > maxSupport {
			support = nil
		}
	}
	qt.step(stEval, "")
	return answers, support, nil
}

// fallback answers the goal from the engine's live derived state —
// the pre-magic "grep Derived()" path — with predicate-level cache
// precision (support nil).
func (s *Session) fallback(lit ast.Literal, qt *qtrace) ([]eval.Tuple, map[string]bool, error) {
	s.fallbacks.Inc()
	answers := core.MatchGoal(lit, s.c.Results(lit.PredKey()))
	qt.step(stEval, "fallback")
	return answers, nil, nil
}

// collectBaseSupport walks a proof tree and records the keys of every
// base-fact leaf: leaves whose predicate the original program
// mentions as extensional. Magic seeds and adorned helper tuples
// (present only in the rewritten program) are skipped.
func collectBaseSupport(pt *eval.ProofTree, prog *ast.Program, support map[string]bool) {
	if len(pt.Children) == 0 {
		pred := pt.Tuple.Pred
		if !prog.IsDerived(pred) {
			if _, ok := knownKey(prog, pred); ok {
				support[pt.Tuple.Key()] = true
			}
		}
		return
	}
	for _, c := range pt.Children {
		collectBaseSupport(c, prog, support)
	}
}

// isTautology reports whether the rule derives a literal from itself
// verbatim (head and single positive body literal identical).
func isTautology(r *ast.Rule) bool {
	if len(r.Body) != 1 || r.HasAggregates() {
		return false
	}
	b := r.Body[0]
	if b.Negated || b.Builtin || b.PredKey() != r.Head.PredKey() {
		return false
	}
	for i, a := range r.Head.Args {
		ba := b.Args[i]
		if a.Kind != ast.KindVar || ba.Kind != ast.KindVar || a.Str != ba.Str {
			return false
		}
	}
	return true
}

// knownKey reports whether the original program mentions pred —
// declared base, derived, or appearing in a rule body.
func knownKey(prog *ast.Program, pred string) (string, bool) {
	if prog.Base[pred] || prog.IsDerived(pred) {
		return pred, true
	}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if !l.Builtin && l.PredKey() == pred {
				return pred, true
			}
		}
	}
	return pred, false
}

// tuplesByKey indexes tuples by canonical key.
func tuplesByKey(ts []eval.Tuple) map[string]eval.Tuple {
	m := make(map[string]eval.Tuple, len(ts))
	for _, t := range ts {
		t = t.Keyed()
		m[t.Key()] = t
	}
	return m
}
