// Command benchcheck gates the simulator benchmark against a committed
// baseline: `make bench-check` regenerates BENCH_sim.json and fails the
// build when the fast path drifted from BENCH_baseline.json.
//
// Gated metrics:
//
//   - events: the deterministic workload size — any difference means the
//     benchmark is no longer measuring the same run and the baseline is
//     meaningless, so equality is required.
//   - allocs_per_event_fast: allocation count per event is deterministic
//     for a fixed workload, so the tolerance (default ±10%) exists only
//     to absorb intentional small shifts; both directions fail, because
//     an improvement beyond tolerance means the committed baseline is
//     stale and should be refreshed along with the change that earned it.
//   - events_per_sec_fast: wall-clock throughput is noisy on shared
//     machines, so only a regression beyond the (wider) throughput
//     tolerance fails; improvements always pass.
//
// With -serve-baseline/-serve-candidate it additionally gates the
// query-serving benchmark (BENCH_serve.json, experiment E16):
//
//   - queries: deterministic workload size, equality required (same
//     contract as events).
//   - hot_qps / churn_qps: wall-clock rates, regression-only beyond the
//     serve throughput tolerance (hot-path numbers are microsecond-scale
//     and noisy, so the floor is wide).
//   - fallbacks: deterministic — the magic path degraded to a full scan
//     for some goal — gated increase-only with zero slack.
//   - query_latency_p99_us: the histogram reports power-of-two bucket
//     upper bounds, so the quantile moves in 2x jumps; gated
//     increase-only with enough headroom for one bucket jump plus
//     scheduling noise.
//   - churn_batched_qps: the coalesced-write churn rate, regression-only
//     like the other rates.
//   - readers rows (matched by reader count): concurrent-reader hot-goal
//     qps, regression-only — the single-reader row doubles as the "no
//     worse than the serial path" gate.
//   - churn_batched_syncs / mean_batch_size: deterministic coalescing
//     quality — more syncs or smaller batches than the baseline means
//     write batching is coalescing less. Warn-only: the numbers shift
//     legitimately when the phase shape changes, and the qps gates catch
//     any real throughput damage.
//
// Both comparisons warn (never fail) when baseline and candidate report
// different num_cpu or gomaxprocs values: the deterministic gates stay
// meaningful across machines, but every timing gate's noise floor
// assumes the same hardware.
//
// Usage:
//
//	benchcheck -baseline BENCH_baseline.json -candidate BENCH_sim.json \
//	    [-serve-baseline BENCH_serve_baseline.json -serve-candidate BENCH_serve.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// simBench mirrors the gated subset of experiments.SimBenchResult's
// JSON; unknown fields are ignored so the baseline survives additions.
// Fields are pointers so a key that is absent from a file (an old
// baseline predating a new metric) is distinguishable from a zero: a
// missing baseline key warns instead of failing, so adding a gated
// metric does not break the build before the baseline is refreshed —
// present keys keep their full gates.
type simBench struct {
	Events           *int64   `json:"events"`
	AllocsPerEvent   *float64 `json:"allocs_per_event_fast"`
	EventsPerSecFast *float64 `json:"events_per_sec_fast"`
	NumCPU           *int     `json:"num_cpu"`
	GoMaxProcs       *int     `json:"gomaxprocs"`
}

// serveBench mirrors the gated subset of experiments.ServeBenchResult's
// JSON, with the same pointer-field warn-on-absent contract as
// simBench.
type serveBench struct {
	Queries           *int64           `json:"queries"`
	HotQPS            *float64         `json:"hot_qps"`
	ChurnQPS          *float64         `json:"churn_qps"`
	ChurnBatchedQPS   *float64         `json:"churn_batched_qps"`
	ChurnBatchedSyncs *int64           `json:"churn_batched_syncs"`
	MeanBatchSize     *float64         `json:"mean_batch_size"`
	Readers           []serveReaderRow `json:"readers"`
	Fallbacks         *int64           `json:"fallbacks"`
	P99Us             *int64           `json:"query_latency_p99_us"`
	NumCPU            *int             `json:"num_cpu"`
	GoMaxProcs        *int             `json:"gomaxprocs"`
}

// serveReaderRow mirrors one concurrent-readers measurement.
type serveReaderRow struct {
	Readers *int     `json:"readers"`
	QPS     *float64 `json:"qps"`
}

func load(path string) (*simBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b simBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &b, nil
}

func loadServe(path string) (*serveBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b serveBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &b, nil
}

func relDiff(base, cand float64) float64 {
	if base == 0 {
		return math.Inf(1)
	}
	return (cand - base) / base
}

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline metrics")
	candidate := flag.String("candidate", "BENCH_sim.json", "freshly generated metrics to gate")
	tol := flag.Float64("tolerance", 0.10, "allowed relative drift in allocs_per_event_fast, either direction")
	thrTol := flag.Float64("throughput-tolerance", 0.35, "allowed relative throughput regression (timing noise headroom)")
	serveBaseline := flag.String("serve-baseline", "", "committed serve-bench baseline (empty skips serve gating)")
	serveCandidate := flag.String("serve-candidate", "", "freshly generated serve-bench metrics to gate")
	serveThrTol := flag.Float64("serve-throughput-tolerance", 0.50, "allowed relative qps regression in the serve bench")
	p99Tol := flag.Float64("p99-tolerance", 3.0, "allowed relative increase in query_latency_p99_us (3.0 = up to 4x; the histogram buckets are powers of two)")
	flag.Parse()

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
	cand, err := load(*candidate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}

	failed := false
	fail := func(format string, args ...interface{}) {
		failed = true
		fmt.Printf("FAIL  "+format+"\n", args...)
	}
	// missing reports a gate whose key one side lacks. Absent from the
	// baseline: warn only — the metric is new and the baseline predates
	// it; refresh to start gating it. Absent from the candidate while
	// the baseline has it: fail — a gated metric disappeared.
	missing := func(name string, inBase, inCand bool) bool {
		switch {
		case !inBase && !inCand:
			fmt.Printf("warn  %s: absent from both files; nothing to gate\n", name)
		case !inBase:
			fmt.Printf("warn  %s: absent from baseline %s — refresh it to gate this metric\n", name, *baseline)
		case !inCand:
			fail("%s: present in baseline but missing from candidate %s", name, *candidate)
		}
		return !inBase || !inCand
	}

	// Cross-machine comparisons are legal but every timing gate's noise
	// floor assumes the same hardware, so a core-count mismatch warns
	// (never fails): the deterministic gates (events, allocs/event) stay
	// meaningful, the rate gates deserve suspicion.
	coreWarn := func(what string, bN, cN, bP, cP *int) {
		if bN != nil && cN != nil && *bN != *cN {
			fmt.Printf("warn  %s: candidate measured on %d CPUs, baseline on %d — timing gates compare different machines\n",
				what, *cN, *bN)
		}
		if bP != nil && cP != nil && *bP != *cP {
			fmt.Printf("warn  %s: candidate ran with GOMAXPROCS=%d, baseline with %d — parallel rows are not comparable\n",
				what, *cP, *bP)
		}
	}
	coreWarn("sim cores", base.NumCPU, cand.NumCPU, base.GoMaxProcs, cand.GoMaxProcs)

	if !missing("events", base.Events != nil, cand.Events != nil) {
		if *cand.Events != *base.Events {
			fail("events: %d, baseline %d — the workload changed; regenerate %s deliberately",
				*cand.Events, *base.Events, *baseline)
		} else {
			fmt.Printf("ok    events: %d (exact match)\n", *cand.Events)
		}
	}

	if !missing("allocs/event", base.AllocsPerEvent != nil, cand.AllocsPerEvent != nil) {
		if d := relDiff(*base.AllocsPerEvent, *cand.AllocsPerEvent); math.Abs(d) > *tol {
			verb := "regressed"
			hint := "find the new allocation"
			if d < 0 {
				verb = "improved"
				hint = "refresh " + *baseline + " to bank the win"
			}
			fail("allocs/event: %.3f, baseline %.3f (%+.1f%% — %s beyond ±%.0f%%; %s)",
				*cand.AllocsPerEvent, *base.AllocsPerEvent, 100*d, verb, 100**tol, hint)
		} else {
			fmt.Printf("ok    allocs/event: %.3f vs baseline %.3f (%+.1f%%, within ±%.0f%%)\n",
				*cand.AllocsPerEvent, *base.AllocsPerEvent,
				100*relDiff(*base.AllocsPerEvent, *cand.AllocsPerEvent), 100**tol)
		}
	}

	if !missing("throughput", base.EventsPerSecFast != nil, cand.EventsPerSecFast != nil) {
		if d := relDiff(*base.EventsPerSecFast, *cand.EventsPerSecFast); d < -*thrTol {
			fail("throughput: %.0f events/s, baseline %.0f (%.1f%% regression beyond %.0f%% noise floor)",
				*cand.EventsPerSecFast, *base.EventsPerSecFast, -100*d, 100**thrTol)
		} else {
			fmt.Printf("ok    throughput: %.0f events/s vs baseline %.0f (%+.1f%%)\n",
				*cand.EventsPerSecFast, *base.EventsPerSecFast,
				100*relDiff(*base.EventsPerSecFast, *cand.EventsPerSecFast))
		}
	}

	if *serveBaseline != "" || *serveCandidate != "" {
		sbase, err := loadServe(*serveBaseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		scand, err := loadServe(*serveCandidate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}

		coreWarn("serve cores", sbase.NumCPU, scand.NumCPU, sbase.GoMaxProcs, scand.GoMaxProcs)

		if !missing("serve queries", sbase.Queries != nil, scand.Queries != nil) {
			if *scand.Queries != *sbase.Queries {
				fail("serve queries: %d, baseline %d — the serving workload changed; regenerate %s deliberately",
					*scand.Queries, *sbase.Queries, *serveBaseline)
			} else {
				fmt.Printf("ok    serve queries: %d (exact match)\n", *scand.Queries)
			}
		}

		qps := func(name string, b, c *float64) {
			if missing(name, b != nil, c != nil) {
				return
			}
			if d := relDiff(*b, *c); d < -*serveThrTol {
				fail("%s: %.0f q/s, baseline %.0f (%.1f%% regression beyond %.0f%% noise floor)",
					name, *c, *b, -100*d, 100**serveThrTol)
			} else {
				fmt.Printf("ok    %s: %.0f q/s vs baseline %.0f (%+.1f%%)\n",
					name, *c, *b, 100*relDiff(*b, *c))
			}
		}
		qps("serve hot qps", sbase.HotQPS, scand.HotQPS)
		qps("serve churn qps", sbase.ChurnQPS, scand.ChurnQPS)
		qps("serve churn-batched qps", sbase.ChurnBatchedQPS, scand.ChurnBatchedQPS)

		// Concurrent-reader rows, matched by reader count. Rates, so
		// regression-only like the other qps gates.
		candReaders := make(map[int]serveReaderRow)
		for _, r := range scand.Readers {
			if r.Readers != nil {
				candReaders[*r.Readers] = r
			}
		}
		if len(sbase.Readers) == 0 {
			fmt.Printf("warn  serve readers: absent from baseline %s — refresh it to gate the concurrent read path\n", *serveBaseline)
		} else {
			for _, br := range sbase.Readers {
				if br.Readers == nil {
					continue
				}
				n := *br.Readers
				cr, ok := candReaders[n]
				if !ok {
					fail("serve readers[%d]: present in baseline but missing from candidate %s", n, *serveCandidate)
					continue
				}
				qps(fmt.Sprintf("serve readers=%d qps", n), br.QPS, cr.QPS)
			}
		}

		// Coalescing quality: deterministic counts, but phase-shape
		// changes move them legitimately, so these warn instead of
		// failing — the qps gates above are the hard floor.
		if sbase.ChurnBatchedSyncs != nil && scand.ChurnBatchedSyncs != nil {
			if *scand.ChurnBatchedSyncs > *sbase.ChurnBatchedSyncs {
				fmt.Printf("warn  serve churn-batched syncs: %d, baseline %d — write batching coalesces less than it used to\n",
					*scand.ChurnBatchedSyncs, *sbase.ChurnBatchedSyncs)
			} else {
				fmt.Printf("ok    serve churn-batched syncs: %d vs baseline %d\n",
					*scand.ChurnBatchedSyncs, *sbase.ChurnBatchedSyncs)
			}
		}
		if sbase.MeanBatchSize != nil && scand.MeanBatchSize != nil {
			if *scand.MeanBatchSize < *sbase.MeanBatchSize {
				fmt.Printf("warn  serve mean batch size: %.1f, baseline %.1f — batches shrank; syncs per write are up\n",
					*scand.MeanBatchSize, *sbase.MeanBatchSize)
			} else {
				fmt.Printf("ok    serve mean batch size: %.1f vs baseline %.1f\n",
					*scand.MeanBatchSize, *sbase.MeanBatchSize)
			}
		}

		if !missing("serve fallbacks", sbase.Fallbacks != nil, scand.Fallbacks != nil) {
			if *scand.Fallbacks > *sbase.Fallbacks {
				fail("serve fallbacks: %d, baseline %d — the magic-set point-query path degraded to full scans",
					*scand.Fallbacks, *sbase.Fallbacks)
			} else {
				fmt.Printf("ok    serve fallbacks: %d vs baseline %d\n", *scand.Fallbacks, *sbase.Fallbacks)
			}
		}

		if !missing("serve p99 latency", sbase.P99Us != nil, scand.P99Us != nil) {
			limit := float64(*sbase.P99Us) * (1 + *p99Tol)
			if float64(*scand.P99Us) > limit {
				fail("serve p99 latency: %dµs, baseline %dµs — beyond the %.0fx headroom (limit %.0fµs)",
					*scand.P99Us, *sbase.P99Us, 1+*p99Tol, limit)
			} else {
				fmt.Printf("ok    serve p99 latency: %dµs vs baseline %dµs (limit %.0fµs)\n",
					*scand.P99Us, *sbase.P99Us, limit)
			}
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("benchcheck: candidate within baseline envelope")
}
