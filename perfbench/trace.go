package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// layerNames lists every per-layer metric, in report order; a traced
// run reports all of them. A layer the workload does not exercise
// reports 0 (README.md says which workload moves which metric).
var layerNames = []string{
	"wire.rtt_p50_us", "wire.overhead_p50_us", "wire.bytes_per_op", "wire.writes_per_op",
	"session.hit_p50_us", "session.read_concurrency_peak",
	"cache.hit_ratio", "cache.evictions_per_query",
	"parse.p50_us", "magic.rewrite_p50_us",
	"eval.evaluate_p50_us", "eval.inserts_per_miss", "eval.join_ops_per_miss",
	"proof.p50_us", "proof.share_of_miss",
	"flush.sync_p50_us", "flush.sync_p99_us", "flush.validate_us", "flush.apply_us", "flush.run_us", "flush.fanout_us",
	"batch.mean_size", "batch.flushes_per_s", "subs.deltas_per_write", "subs.dropped",
	"loadgen.op_p99_us", "loadgen.late_p99_ms", "loadgen.read_p50_us", "loadgen.read_p99_us",
	"nsim.ns_per_event", "nsim.allocs_per_event", "nsim.queue_depth_p99",
	"routing.nearest_hit_ratio", "core.probes_per_event", "core.mem.max",
	"nsim.events", "nsim.messages", "nsim.bytes",
	"setup.topo_ms", "setup.engine_ms", "setup.load_ms",
	"cpu.nsim", "cpu.core", "cpu.window", "cpu.routing", "cpu.eval", "cpu.serve", "cpu.gc",
	"trace.overhead_pct",
}

var layerUnits = map[string]string{
	"wire.rtt_p50_us": "us", "wire.overhead_p50_us": "us", "wire.bytes_per_op": "B", "wire.writes_per_op": "count",
	"session.hit_p50_us": "us", "session.read_concurrency_peak": "count",
	"cache.hit_ratio": "ratio", "cache.evictions_per_query": "ratio",
	"parse.p50_us": "us", "magic.rewrite_p50_us": "us",
	"eval.evaluate_p50_us": "us", "eval.inserts_per_miss": "count", "eval.join_ops_per_miss": "count",
	"proof.p50_us": "us", "proof.share_of_miss": "ratio",
	"flush.sync_p50_us": "us", "flush.sync_p99_us": "us", "flush.validate_us": "us", "flush.apply_us": "us",
	"flush.run_us": "us", "flush.fanout_us": "us",
	"batch.mean_size": "count", "batch.flushes_per_s": "1/s", "subs.deltas_per_write": "count", "subs.dropped": "count",
	"loadgen.op_p99_us": "us", "loadgen.late_p99_ms": "ms", "loadgen.read_p50_us": "us", "loadgen.read_p99_us": "us",
	"nsim.ns_per_event": "ns", "nsim.allocs_per_event": "count", "nsim.queue_depth_p99": "count",
	"routing.nearest_hit_ratio": "ratio", "core.probes_per_event": "count", "core.mem.max": "count",
	"nsim.events": "count", "nsim.messages": "count", "nsim.bytes": "B",
	"setup.topo_ms": "ms", "setup.engine_ms": "ms", "setup.load_ms": "ms",
	"cpu.nsim": "%", "cpu.core": "%", "cpu.window": "%", "cpu.routing": "%", "cpu.eval": "%", "cpu.serve": "%", "cpu.gc": "%",
	"trace.overhead_pct": "%",
}

// span is one timed call into a layer. Spans of one operation share
// Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Note   string `json:"note,omitempty"`
}

// maxSpans bounds the span records kept in memory; durations per span
// name are always kept, so the layer quantiles see every call.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. Methods on a nil
// tracer record nothing, so untraced phases run the same code.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	durs    map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: make(map[string][]time.Duration)}
}

// newID returns a fresh trace or span id (0 on a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span; a zero sp.ID gets a fresh id.
func (t *tracer) record(sp span, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	if sp.ID == 0 {
		sp.ID = t.newID()
	}
	sp.Start, sp.Dur = int64(start.Sub(t.t0)), int64(dur)
	t.mu.Lock()
	t.durs[sp.Name] = append(t.durs[sp.Name], dur)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// time runs f inside a span and returns its duration.
func (t *tracer) time(trace, parent int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.record(span{Trace: trace, Parent: parent, Name: name}, start, d)
	return d
}

// quantileUs is the q-quantile duration of the named spans in
// microseconds.
func (t *tracer) quantileUs(name string, q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return micros(quantile(t.durs[name], q))
}

// sum is the total duration of the named spans.
func (t *tracer) sum(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s time.Duration
	for _, d := range t.durs[name] {
		s += d
	}
	return s
}

// writeJSONL writes every kept span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun measures an untraced half and a traced half of the run,
// replays the layers, and returns the per-layer metrics. The span
// records and the layer numbers go to files under cfg.out.
func tracedRun(cfg config, def workloadDef, e env, setups []float64, machine map[string]any) (map[string]float64, tally, error) {
	var t tally
	half := cfg.seconds / 2
	base, err := e.measure(half, nil)
	if err != nil {
		return nil, t, err
	}
	t.add(base.tally)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, t, fmt.Errorf("cpu profile: %w", err)
	}
	traced, err := e.measure(half, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, t, err
	}
	t.add(traced.tally)

	layers := make(map[string]float64, len(layerNames))
	for k, v := range traced.layers {
		layers[k] = v
	}
	rt, err := e.replay(tr, traced, layers)
	if err != nil {
		return nil, t, fmt.Errorf("replay: %w", err)
	}
	t.add(rt)
	bd, err := def.breakdown(cfg, tr)
	if err != nil {
		return nil, t, fmt.Errorf("setup breakdown: %w", err)
	}
	for k, v := range bd {
		layers[k] = v
	}
	cpu, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, t, fmt.Errorf("cpu attribution: %w", err)
	}
	for k, v := range cpu {
		layers[k] = v
	}
	// The tail is reported here, from the untraced half, not as an
	// end-to-end metric: on a shared 2-core VM tail latencies moved too
	// far between runs to hold any bound (README.md).
	layers["loadgen.op_p99_us"] = micros(quantile(base.lat, 0.99))
	// Tracing overhead: the traced half's median operation latency
	// against the untraced half's, on the same set-up deployment.
	layers["trace.overhead_pct"] = 100 * (ratio(float64(quantile(traced.lat, 0.5)), float64(quantile(base.lat, 0.5))) - 1)
	for _, name := range layerNames {
		if _, ok := layers[name]; !ok {
			layers[name] = 0
		}
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, t, err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(stem + ".spans.jsonl"); err != nil {
		return nil, t, fmt.Errorf("write spans: %w", err)
	}
	report := map[string]any{
		"machine":         machine,
		"setup_runs_s":    setups,
		"layers":          layers,
		"units":           layerUnits,
		"spans_kept":      len(tr.spans),
		"spans_dropped":   tr.dropped,
		"untraced_p50_us": micros(quantile(base.lat, 0.5)),
		"traced_p50_us":   micros(quantile(traced.lat, 0.5)),
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, t, err
	}
	if err := os.WriteFile(stem+".layers.json", b, 0o644); err != nil {
		return nil, t, err
	}
	return layers, t, nil
}
