package main

import (
	"math/rand"
	"runtime"
	"time"

	snlog "repro"
	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// twoStreamSrc is E1's two-stream join, evaluated in network with the
// Perpendicular Approach (the deployment default).
const twoStreamSrc = `
.base ra/2.
.base rb/2.
out(X, Z) :- ra(X, Y), rb(Y, Z).
`

const (
	simGrid    = 64  // Grid(64): 4096 nodes
	simPairs   = 400 // k: ra/rb injection pairs per wave
	simNetSeed = 11  // the simulator's seed, as in E1
)

// injection is one scheduled base fact.
type injection struct {
	at   int64
	node int
	t    eval.Tuple
}

// simWave is E1's injection schedule, drawn from seed: pair i injects
// ra(i, i mod k/2) at tick 7i and rb(i mod k/2, i) at tick 7i+3, each
// at a random node, so every join key matches two ra and two rb
// tuples and the wave derives 2k out/2 tuples.
func simWave(seed int64) []injection {
	rng := rand.New(rand.NewSource(seed))
	n := simGrid * simGrid
	var w []injection
	for i := 0; i < simPairs; i++ {
		key := int64(i % (simPairs / 2))
		at := int64(i * 7)
		w = append(w, injection{at, rng.Intn(n), eval.NewTuple("ra", ast.Int64(int64(i)), ast.Int64(key))})
		w = append(w, injection{at + 3, rng.Intn(n), eval.NewTuple("rb", ast.Int64(key), ast.Int64(int64(i)))})
	}
	return w
}

// simEnv is sim-e1-m64: a settled deployment waiting for its wave.
type simEnv struct {
	wave []injection
	c    *snlog.Cluster  // settled, not yet injected; nil once used
	last *snlog.Cluster  // the last wave's deployment, kept for live_heap_mb
	want map[string]bool // out/2 by snlog.Eval over the wave's facts
	ref  *[3]int64       // events, messages, bytes of the first wave
}

func deploySim() (*snlog.Cluster, error) {
	c, err := snlog.Deploy(snlog.Grid(simGrid), twoStreamSrc, snlog.WithSeed(simNetSeed))
	if err != nil {
		return nil, err
	}
	c.Run()
	return c, nil
}

func setupSim(cfg config) (env, error) {
	c, err := deploySim()
	if err != nil {
		return nil, err
	}
	return &simEnv{wave: simWave(cfg.seed), c: c}, nil
}

func (e *simEnv) close() {}

// expected evaluates the wave's facts centrally, once per run.
func (e *simEnv) expected() (map[string]bool, error) {
	if e.want != nil {
		return e.want, nil
	}
	facts := make([]eval.Tuple, len(e.wave))
	for i, in := range e.wave {
		facts[i] = in.t
	}
	db, err := snlog.Eval(twoStreamSrc, facts)
	if err != nil {
		return nil, err
	}
	e.want = make(map[string]bool)
	for _, t := range db.Tuples("out/2") {
		e.want[t.Key()] = true
	}
	return e.want, nil
}

// measure runs waves for about d, each on a fresh settled deployment:
// a wave is one operation, timed from its first Inject until Run
// returns, and ops_per_s counts simulated events per second. The first
// wave uses the set-up deployment; later ones deploy their own,
// outside the timed region.
func (e *simEnv) measure(d time.Duration, tr *tracer) (*sample, error) {
	want, err := e.expected()
	if err != nil {
		return nil, err
	}
	s := &sample{}
	var mallocs uint64
	var lastSnap snlog.Snapshot
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		// Drop the previous wave's deployment before this one runs.
		c := e.c
		e.c, e.last = nil, nil
		if c == nil {
			if c, err = deploySim(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		tid, wave := tr.newID(), tr.newID()
		t0 := time.Now()
		tr.time(tid, wave, "sim.inject", func() {
			for _, in := range e.wave {
				if err == nil {
					err = c.InjectAt(in.at, in.node, in.t)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		tr.time(tid, wave, "sim.run", func() { c.Run() })
		dt := time.Since(t0)
		tr.record(span{Trace: tid, ID: wave, Name: "sim.wave"}, t0, dt)
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
		}
		e.last = c
		lastSnap = c.Snapshot()
		stats := [3]int64{lastSnap.Get("nsim.events"), lastSnap.Get("nsim.messages"), lastSnap.Get("nsim.bytes")}
		s.attempted++
		if e.ref == nil {
			e.ref = &stats
		}
		got := c.Results("out/2")
		switch {
		case *e.ref != stats:
			s.wrong("wave events/messages/bytes %v differ from the first wave's %v", stats, *e.ref)
		case !sameKeys(got, want):
			s.wrong("out/2 has %d tuples, snlog.Eval derives %d", len(got), len(want))
		default:
			s.ops += stats[0]
			s.elapsed += dt
			s.lat = append(s.lat, dt)
		}
	}
	events := float64(lastSnap.Get("nsim.events"))
	hits, misses := float64(lastSnap.Get("routing.nearest_hits")), float64(lastSnap.Get("routing.nearest_misses"))
	s.layers = map[string]float64{
		"nsim.ns_per_event":         ratio(float64(s.elapsed.Nanoseconds()), float64(s.ops)),
		"nsim.allocs_per_event":     ratio(float64(mallocs), float64(s.ops)),
		"nsim.queue_depth_p99":      float64(lastSnap.Get("nsim.queue_hist.p99")),
		"routing.nearest_hit_ratio": ratio(hits, hits+misses),
		"core.probes_per_event":     ratio(float64(lastSnap.Get("core.probes")), events),
		"core.mem.max":              float64(lastSnap.Get("core.mem.max")),
		"nsim.events":               events,
		"nsim.messages":             float64(lastSnap.Get("nsim.messages")),
		"nsim.bytes":                float64(lastSnap.Get("nsim.bytes")),
	}
	return s, nil
}

func (e *simEnv) replay(*tracer, *sample, map[string]float64) (tally, error) { return tally{}, nil }

func simBreakdown(_ config, tr *tracer) (map[string]float64, error) {
	return bareBreakdown(tr, simGrid, simNetSeed, twoStreamSrc, nil)
}

func sameKeys(got []eval.Tuple, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, t := range got {
		if !want[t.Key()] {
			return false
		}
	}
	return true
}
