package experiments

import (
	"time"

	"repro/internal/datalog/ast"
	"repro/internal/datalog/eval"
)

// JoinBenchResult is the centralized indexed-vs-naive A/B comparison
// snbench emits as BENCH_join.json. Both modes compute byte-identical
// results (pinned by TestIndexedEquivalence); only the lookup strategy
// differs, so the join counts must match exactly across modes.
type JoinBenchResult struct {
	// Semi-naive transitive closure over a 60-edge chain.
	CentralizedIndexedMs float64 `json:"centralized_indexed_ms"`
	CentralizedNaiveMs   float64 `json:"centralized_naive_ms"`
	CentralizedSpeedup   float64 `json:"centralized_speedup"`
	JoinOpsIndexed       int64   `json:"join_ops_indexed"`
	JoinOpsNaive         int64   `json:"join_ops_naive"`
	ScanOpsIndexed       int64   `json:"scan_ops_indexed"`
	ScanOpsNaive         int64   `json:"scan_ops_naive"`
}

const tcSrc = `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`

// JoinBench measures the centralized evaluator's argument-position
// index win on the transitive-closure workload. reps controls how many
// timed repetitions each mode averages over.
func JoinBench(reps int) JoinBenchResult {
	if reps < 1 {
		reps = 1
	}
	var res JoinBenchResult

	p := mustProg(tcSrc)
	var facts []eval.Tuple
	for i := int64(0); i < 60; i++ {
		facts = append(facts, eval.NewTuple("edge", ast.Int64(i), ast.Int64(i+1)))
	}
	central := func(naive bool) (float64, int64, int64) {
		var joinOps, scanOps int64
		start := time.Now()
		for r := 0; r < reps; r++ {
			ev, err := eval.New(p, eval.Options{NaiveJoin: naive})
			if err != nil {
				panic(err)
			}
			db, err := ev.Run(facts)
			if err != nil {
				panic(err)
			}
			if db.Count("path/2") != 60*61/2 {
				panic("join bench: wrong centralized result")
			}
			joinOps, scanOps = ev.JoinOps, ev.ScanOps
		}
		ms := time.Since(start).Seconds() * 1000 / float64(reps)
		return ms, joinOps, scanOps
	}
	res.CentralizedIndexedMs, res.JoinOpsIndexed, res.ScanOpsIndexed = central(false)
	res.CentralizedNaiveMs, res.JoinOpsNaive, res.ScanOpsNaive = central(true)
	if res.CentralizedIndexedMs > 0 {
		res.CentralizedSpeedup = res.CentralizedNaiveMs / res.CentralizedIndexedMs
	}
	if res.JoinOpsIndexed != res.JoinOpsNaive {
		panic("join bench: join counts differ between indexed and naive runs")
	}
	return res
}
